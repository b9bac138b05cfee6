# Development targets. `tier1` is the repo's canonical pass/fail gate;
# `verify` adds vet and the race detector, which matters now that the
# sweep engine's worker pool is the default execution path for every
# experiment. Run both before merging.

.PHONY: tier1 verify lint srlbench-test identity bench bench-json profile bench-smoke fuzz serve serve-smoke cluster-smoke clean-store paper paper-quick paper-smoke

tier1:
	go build ./... && go test ./...

verify:
	go vet ./...
	go test -race ./...

# Formatting and static checks, kept separate from the test gates so CI
# can report them as a distinct failure. The last one fails when a per-uop
# helper of the cycle loop stops being inlined (scripts/inline_check.sh
# lists them and states the rule for the list).
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi
	go vet ./...
	./scripts/inline_check.sh

# cmd/srlbench is a module of its own, so the root `go test ./...` never
# builds it; it compiles against the internal/bench and internal/paper APIs.
srlbench-test:
	cd cmd/srlbench && go vet ./... && go test ./...

# Byte identity against a base revision (default main): builds
# cmd/experiments and cmd/paperrepro at BASE and from the working tree and
# compares their results, tables, paper-pipeline trees and skip engagement
# (scripts/identity.sh lists them). A tool, not a CI gate: a change meant
# to move results differs on purpose.
BASE ?= main
identity:
	./scripts/identity.sh $(BASE)

# The sweep-engine comparison: serial vs pooled vs pooled+memoized on the
# Figure 6 matrix at QuickOptions scale.
bench:
	go test -run '^$$' -bench BenchmarkSweepMatrix -benchtime 1x -benchmem .

# Machine-readable perf trajectory: the cycle-loop, ready-list,
# order-tracker, trace-generator and MSHR miss-path micro-benchmarks, one
# full design point per design, the result document's encoding and one
# /v1/simulate memo hit through the server's handler (three repetitions:
# the minimum kept for the gate, with n, mean and std beside it) plus the
# end-to-end sweep matrix and a cold serial Figure 2 sweep on a private
# memo cache, rendered to BENCH_core.json by cmd/benchjson.
# This file is the CI bench gate's baseline and the repo's recorded perf
# history — regenerate and commit it when a PR intentionally shifts
# performance.
BENCHOUT ?= BENCH_core.json
BENCHRAW ?= /tmp/srlproc_bench_raw.txt
bench-json:
	@{ go test -run '^$$' -bench '^BenchmarkSweepMatrix$$/^serial$$' -benchtime 1x -benchmem . && \
	   go test -run '^$$' -bench '^BenchmarkFigure2StoreQueueSweep$$' -benchtime 1x -count 3 -benchmem . && \
	   go test -run '^$$' -bench '^(BenchmarkCycleLoop|BenchmarkReadyList|BenchmarkIssueWidth|BenchmarkResultsJSON)(/|$$)' \
	       -benchtime 20000x -count 3 -benchmem ./internal/core && \
	   go test -run '^$$' -bench '^BenchmarkSimulateHit$$' \
	       -benchtime 20000x -count 3 -benchmem ./internal/serve && \
	   go test -run '^$$' -bench '^BenchmarkOrderTracker$$' \
	       -benchtime 20000x -count 3 -benchmem ./internal/lsq && \
	   go test -run '^$$' -bench '^BenchmarkCycleLoopSkip(/|$$)' \
	       -benchtime 10x -count 3 -benchmem ./internal/core && \
	   go test -run '^$$' -bench '^BenchmarkDesignPoint(/|$$)' \
	       -benchtime 1x -count 3 -benchmem ./internal/core && \
	   go test -run '^$$' -bench '^BenchmarkGeneratorNext(/|$$)' \
	       -benchtime 200000x -count 3 -benchmem ./internal/trace && \
	   go test -run '^$$' -bench '^BenchmarkHierarchyMissPath$$' \
	       -benchtime 200000x -count 3 -benchmem ./internal/cachesim ; } | tee $(BENCHRAW) | \
	   go run ./cmd/benchjson -o $(BENCHOUT)
	@echo "wrote $(BENCHOUT) (raw text: $(BENCHRAW))"

# CPU profile of the cycle-loop benchmarks the perf ledger watches, and
# pprof's table of it sorted by flat%. Both land in PROFILEDIR, outside the
# repository by default like BENCHRAW; `go tool pprof -http=: cpu.pprof`
# there browses the profile.
PROFILEDIR ?= /tmp/srlproc_profile
profile:
	@mkdir -p $(PROFILEDIR)
	go test -run '^$$' -bench '^BenchmarkCycleLoop$$/^(baseline-48STQ|SRL|ideal-1024STQ|hierarchical-STQ)$$' -benchtime 2000000x \
	    -o $(PROFILEDIR)/core.test -cpuprofile $(PROFILEDIR)/cpu.pprof ./internal/core
	go tool pprof -top $(PROFILEDIR)/core.test $(PROFILEDIR)/cpu.pprof > $(PROFILEDIR)/top.txt
	@head -30 $(PROFILEDIR)/top.txt
	@echo "wrote $(PROFILEDIR)/cpu.pprof and $(PROFILEDIR)/top.txt"

# One-iteration compile-and-run pass over every benchmark in the repo, so
# `go test ./...` runs that match no benchmarks cannot let them rot.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x ./...

# Run the simulator as a long-lived HTTP service (cmd/srlserved) with the
# persistent result store at STOREDIR, so restarts warm-start from disk.
# SIGTERM or Ctrl-C drains gracefully: in-flight jobs finish (and pending
# store writes flush), then the process exits 0.
SERVE_ADDR ?= :8080
STOREDIR ?= .srlproc-store
serve:
	go run ./cmd/srlserved -addr $(SERVE_ADDR) -store-dir $(STOREDIR)

# Drop the persistent result store. Safe at any time: the store is a pure
# cache of recomputable simulation results, keyed by code stamp — the next
# run simply recomputes and repopulates it.
clean-store:
	rm -rf $(STOREDIR)

# End-to-end service smoke test, mirrored by the CI serve-smoke step:
# start srlserved, run one simulate and one sweep request, check /healthz
# and /metrics, then SIGTERM it and require a clean drain (exit 0).
serve-smoke:
	./scripts/serve_smoke.sh

# Multi-process cluster smoke test, mirrored by the CI cluster-smoke
# step: a coordinator and two workers run a sweep that must come back
# byte-identical to a single-node run — including a leg that SIGKILLs
# one worker mid-sweep and relies on re-dispatch.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Reproduce the paper: execute the experiment grid
# (scripts/paper/experiments.json) into paper_runs/<stamp>/ with validated
# CSVs, summary stats, Markdown/LaTeX tables, SVG plots and a report.md,
# then check repeats byte-compare and headline metrics sit inside
# scripts/paper/expectations.json. `paper-quick` is the CI-smoke scale
# (~30s); `paper` is the full-scale run behind the paper's numbers. Both
# warm-start from (and populate) the persistent store at PAPERSTORE.
PAPERSTORE ?= .srlproc-paper-store
paper:
	go run ./cmd/paperrepro -profile full -check -store-dir $(PAPERSTORE)

paper-quick:
	go run ./cmd/paperrepro -profile quick -check -store-dir $(PAPERSTORE)

# End-to-end pipeline smoke test, mirrored by the CI paper-smoke job: two
# quick-profile runs over one store must both pass -check and produce
# byte-identical csv/ and analysis/ trees.
paper-smoke:
	./scripts/paper_smoke.sh

# Budgeted differential-oracle run (see internal/check): the seeded-bug and
# regression-trace tests, the full-scale oracle sweep over every Figure 2/6
# design point, then FUZZTIME of randomized trace-profile x design-point
# fuzzing, then FUZZTIME of arbitrary bytes through the .srlt decoder and a
# short simulation of whatever it accepts, then FUZZTIME of machine
# geometries near Table 1's, each rejected by Config.Validate or run, then
# FUZZTIME of arbitrary /v1/simulate bodies through the server's handler,
# each answered with a short run's Results or a 4xx envelope, then FUZZTIME
# of arbitrary paper grids (scripts/paper/experiments.json's format), each
# rejected by ParseGrid or planned for every profile, then FUZZTIME of
# arbitrary bytes as a result store's file, each read back as a verified
# result or a miss that quarantines it. Failing fuzz inputs are auto-saved
# under internal/check/testdata/fuzz/FuzzOracle/,
# internal/trace/testdata/fuzz/FuzzReadRecords/,
# internal/core/testdata/fuzz/FuzzConfig/,
# internal/serve/testdata/fuzz/FuzzSimulateRequest/,
# internal/paper/testdata/fuzz/FuzzGridConfig/ and
# internal/store/testdata/fuzz/FuzzDiskGet/ and become permanent
# regression seeds; minimize an oracle one with
# `go run ./cmd/traceconv minimize`.
FUZZTIME ?= 30s
fuzz:
	go test ./internal/check -run 'TestSeededForwardingBugCaught|TestSeededOrderingBugCaught|TestRegressionTraces' -count=1
	SRLPROC_ORACLE_FULL=1 go test ./internal/check -run 'TestFiguresOracleClean|TestOrderingOracleClean' -count=1
	go test ./internal/check -run '^$$' -fuzz FuzzOracle -fuzztime $(FUZZTIME)
	go test ./internal/trace -run '^$$' -fuzz FuzzReadRecords -fuzztime $(FUZZTIME)
	go test ./internal/core -run '^$$' -fuzz FuzzConfig -fuzztime $(FUZZTIME)
	go test ./internal/serve -run '^$$' -fuzz FuzzSimulateRequest -fuzztime $(FUZZTIME)
	go test ./internal/paper -run '^$$' -fuzz FuzzGridConfig -fuzztime $(FUZZTIME)
	go test ./internal/store -run '^$$' -fuzz FuzzDiskGet -fuzztime $(FUZZTIME)
