#!/bin/sh
# Multi-process cluster smoke test for cmd/srlserved, used by
# `make cluster-smoke` and the CI cluster-smoke step.
#
# Leg 1: a standalone server produces the golden fig6 document.
# Leg 2: a coordinator + two workers run the same sweep; the cluster's
#         document must be byte-identical to the golden, and the
#         coordinator /metrics cluster section must show both workers.
# Leg 3: the same sweep again (fresh coordinator memo state is not a
#         concern — sweeps always re-dispatch), but one worker is killed
#         while the sweep is in flight; the coordinator must re-dispatch
#         the dead worker's points and still answer the identical
#         document, with the failure visible in /metrics.
set -eu

PORT_BASE="${CLUSTER_SMOKE_PORT_BASE:-18180}"
A1="127.0.0.1:$PORT_BASE"        # standalone / golden
A2="127.0.0.1:$((PORT_BASE + 1))" # worker 1
A3="127.0.0.1:$((PORT_BASE + 2))" # worker 2
A4="127.0.0.1:$((PORT_BASE + 3))" # coordinator
BIN="$(mktemp -d)/srlserved"
TMP="$(mktemp -d)"
SWEEP='{"experiment":"fig6","run_uops":60000,"warmup_uops":10000,"seed":1}'
# The kill leg bypasses the workers' memo caches (a cached rerun would
# finish before the kill lands) and runs big enough to still be in
# flight when the worker dies. no_cache changes timings, never results.
SWEEP_KILL='{"experiment":"fig6","run_uops":60000,"warmup_uops":10000,"seed":1,"no_cache":true}'

pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$TMP" "$(dirname "$BIN")"
}
trap cleanup EXIT INT TERM

go build -o "$BIN" ./cmd/srlserved

wait_healthy() {
    i=0
    until curl -sf "http://$1/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "cluster-smoke: $1 never became healthy" >&2
            cat "$TMP"/*.log >&2
            exit 1
        fi
        sleep 0.2
    done
}

post_sweep() {
    curl -sf -X POST -H 'Content-Type: application/json' \
        "http://$1/v1/sweep" -d "$SWEEP"
}

echo "cluster-smoke: golden single-node run"
"$BIN" -addr "$A1" 2>"$TMP/standalone.log" &
pids="$pids $!"
wait_healthy "$A1"
post_sweep "$A1" >"$TMP/golden.json"
[ -s "$TMP/golden.json" ] || { echo "cluster-smoke: empty golden" >&2; exit 1; }

echo "cluster-smoke: coordinator + 2 workers"
"$BIN" -addr "$A2" -worker 2>"$TMP/w1.log" &
w1=$!; pids="$pids $w1"
"$BIN" -addr "$A3" -worker 2>"$TMP/w2.log" &
w2=$!; pids="$pids $w2"
"$BIN" -addr "$A4" -workers "$A2,$A3" 2>"$TMP/coord.log" &
pids="$pids $!"
wait_healthy "$A2"
wait_healthy "$A3"
wait_healthy "$A4"

role=$(curl -sf "http://$A4/healthz")
case "$role" in
*'"role":"coordinator"'*) ;;
*) echo "cluster-smoke: coordinator healthz missing role: $role" >&2; exit 1 ;;
esac
role=$(curl -sf "http://$A2/healthz")
case "$role" in
*'"role":"worker"'*) ;;
*) echo "cluster-smoke: worker healthz missing role: $role" >&2; exit 1 ;;
esac

post_sweep "$A4" >"$TMP/cluster.json"
if ! cmp -s "$TMP/golden.json" "$TMP/cluster.json"; then
    echo "cluster-smoke: cluster document differs from single-node golden" >&2
    diff "$TMP/golden.json" "$TMP/cluster.json" >&2 || true
    exit 1
fi
metrics=$(curl -sf "http://$A4/metrics")
for want in '"role":"coordinator"' "\"worker\":\"$A2\"" "\"worker\":\"$A3\""; do
    case "$metrics" in
    *"$want"*) ;;
    *) echo "cluster-smoke: coordinator metrics cluster section lacks $want: $metrics" >&2; exit 1 ;;
    esac
done

echo "cluster-smoke: worker death mid-sweep"
curl -sf -X POST -H 'Content-Type: application/json' \
    "http://$A4/v1/sweep" -d "$SWEEP_KILL" >"$TMP/killed.json" &
sweep_pid=$!
# Kill worker 2 once it is running part of the sweep, not after a fixed
# delay: a sweep that finishes first leaves no failure to record. Poll its
# /healthz for a job in flight for up to 10 s.
i=0
until curl -sf "http://$A3/healthz" 2>/dev/null | grep -q '"inflight":[1-9]'; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "cluster-smoke: worker 2 ($A3) had no job in flight within 10s of the no-cache sweep starting; cannot test a mid-sweep kill" >&2
        cat "$TMP/coord.log" >&2
        exit 1
    fi
    sleep 0.1
done
kill -KILL "$w2" 2>/dev/null || true
if ! wait "$sweep_pid"; then
    echo "cluster-smoke: sweep failed after worker kill" >&2
    cat "$TMP/coord.log" >&2
    exit 1
fi
if ! cmp -s "$TMP/golden.json" "$TMP/killed.json"; then
    echo "cluster-smoke: post-kill document differs from golden" >&2
    diff "$TMP/golden.json" "$TMP/killed.json" >&2 || true
    exit 1
fi
metrics=$(curl -sf "http://$A4/metrics")
case "$metrics" in
*'"worker_failures_total":'*) ;;
*) echo "cluster-smoke: no worker failure recorded after kill: $metrics" >&2; exit 1 ;;
esac

echo "cluster-smoke: ok (cluster document byte-identical to single node, incl. after worker kill)"
