#!/bin/sh
# End-to-end smoke test for cmd/srlserved, used by `make serve-smoke` and
# the CI serve-smoke step. Starts the server on an ephemeral port, runs
# one simulate and one sweep request, checks /healthz and /metrics, then
# sends SIGTERM and requires a clean drain (exit 0) within the deadline.
# A second leg restarts the same binary against the same -store-dir and
# requires the repeated sweep to be answered entirely from the persistent
# store: zero store misses, at least one store hit, and the simulated
# point retrievable by fingerprint via GET /v1/results/{fp}.
set -eu

ADDR="${SERVE_SMOKE_ADDR:-127.0.0.1:18080}"
BASE="http://$ADDR"
BIN="$(mktemp -d)/srlserved"
LOG="$(mktemp)"
STOREDIR="$(mktemp -d)"
HDRS="$(mktemp)"

pid=""
cleanup() {
    kill "$pid" 2>/dev/null || true
    rm -f "$LOG" "$HDRS"
    rm -rf "$STOREDIR" "$(dirname "$BIN")"
}
trap cleanup EXIT INT TERM

go build -o "$BIN" ./cmd/srlserved

"$BIN" -addr "$ADDR" -drain-timeout 30s 2>"$LOG" &
pid=$!

# wait_healthy blocks until the current server answers /healthz.
wait_healthy() {
    i=0
    until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "serve-smoke: server never became healthy" >&2
            cat "$LOG" >&2
            exit 1
        fi
        sleep 0.2
    done
}

# drain_clean SIGTERMs the current server and requires exit 0.
drain_clean() {
    kill -TERM "$pid"
    i=0
    while kill -0 "$pid" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 150 ]; then
            echo "serve-smoke: server did not drain within deadline" >&2
            cat "$LOG" >&2
            exit 1
        fi
        sleep 0.2
    done
    set +e
    wait "$pid"
    status=$?
    set -e
    if [ "$status" -ne 0 ]; then
        echo "serve-smoke: drain exited $status, want 0" >&2
        cat "$LOG" >&2
        exit 1
    fi
}

wait_healthy

echo "serve-smoke: /v1/simulate"
out=$(curl -sf -X POST -H 'Content-Type: application/json' "$BASE/v1/simulate" \
    -d '{"design":"srl","suite":"SINT2K","run_uops":20000,"warmup_uops":4000}')
case "$out" in
*'"uops"'*) ;;
*) echo "serve-smoke: simulate response missing uops: $out" >&2; exit 1 ;;
esac

echo "serve-smoke: /v1/sweep (table3, quick)"
out=$(curl -sf -X POST -H 'Content-Type: application/json' "$BASE/v1/sweep" \
    -d '{"experiment":"table3","quick":true,"run_uops":4000,"warmup_uops":1000}')
case "$out" in
*'"srl"'* | *'"suites"'* | *'"rows"'* | *'{'*) ;;
*) echo "serve-smoke: sweep response not JSON: $out" >&2; exit 1 ;;
esac

echo "serve-smoke: /metrics"
out=$(curl -sf "$BASE/metrics")
case "$out" in
*'"completed_total"'*) ;;
*) echo "serve-smoke: metrics missing counters: $out" >&2; exit 1 ;;
esac

echo "serve-smoke: SIGTERM drain"
drain_clean

# --- Warm-restart leg: persistence across processes via -store-dir. ---
SIM='{"design":"srl","suite":"SINT2K","run_uops":20000,"warmup_uops":4000}'
SWEEP='{"experiment":"table3","quick":true,"run_uops":4000,"warmup_uops":1000}'

echo "serve-smoke: cold start with -store-dir"
"$BIN" -addr "$ADDR" -drain-timeout 30s -store-dir "$STOREDIR" 2>"$LOG" &
pid=$!
wait_healthy
curl -sf -X POST -H 'Content-Type: application/json' "$BASE/v1/simulate" -d "$SIM" -D "$HDRS" >/dev/null
FP=$(tr -d '\r' <"$HDRS" | awk -F': ' 'tolower($1)=="x-srlproc-point"{print $2}')
if [ -z "$FP" ]; then
    echo "serve-smoke: no X-Srlproc-Point header on simulate" >&2
    exit 1
fi
curl -sf -X POST -H 'Content-Type: application/json' "$BASE/v1/sweep" -d "$SWEEP" >/dev/null
drain_clean

echo "serve-smoke: warm restart from $STOREDIR"
"$BIN" -addr "$ADDR" -drain-timeout 30s -store-dir "$STOREDIR" 2>"$LOG" &
pid=$!
wait_healthy
out=$(curl -sf "$BASE/v1/results/$FP")
case "$out" in
*'"uops"'*) ;;
*) echo "serve-smoke: /v1/results/$FP missing uops: $out" >&2; exit 1 ;;
esac
curl -sf -X POST -H 'Content-Type: application/json' "$BASE/v1/simulate" -d "$SIM" >/dev/null
curl -sf -X POST -H 'Content-Type: application/json' "$BASE/v1/sweep" -d "$SWEEP" -D "$HDRS" >/dev/null
EXP=$(tr -d '\r' <"$HDRS" | awk -F': ' 'tolower($1)=="x-srlproc-experiment"{print $2}')
if [ "$EXP" != "table3" ]; then
    echo "serve-smoke: X-Srlproc-Experiment header $EXP, want table3" >&2
    exit 1
fi
stats=$(curl -sf "$BASE/v1/store/stats")
case "$stats" in
*'"misses":0'*) ;;
*) echo "serve-smoke: warm restart had store misses: $stats" >&2; exit 1 ;;
esac
case "$stats" in
*'"hits":0'*) echo "serve-smoke: warm restart never hit the store: $stats" >&2; exit 1 ;;
*'"hits":'*) ;;
*) echo "serve-smoke: store stats missing hits: $stats" >&2; exit 1 ;;
esac
drain_clean

trap - EXIT INT TERM
rm -f "$LOG" "$HDRS"
rm -rf "$STOREDIR" "$(dirname "$BIN")"
echo "serve-smoke: ok (clean drain, warm restart served from store)"
