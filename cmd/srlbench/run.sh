#!/usr/bin/env bash
# Builds srlbench from the sources of the checkout it is started in, then
# runs it with the given flags. Start it from the repository root:
#
#   bash cmd/srlbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary and everything the
# benchmark writes stay under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f cmd/srlbench/go.mod || ! -d internal/core ]]; then
	echo "srlbench: start from the repository root; the simulator sources are missing here" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user's config directory.
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd cmd/srlbench && go build -o "$out/srlbench" .)
exec "$out/srlbench" "$@"
