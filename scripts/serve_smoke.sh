#!/bin/sh
# Smoke test of the serving daemon: write a demo index set, boot permserve
# on a free port, and drive /healthz, one search, a hot reload and a
# /metrics scrape (validated with scripts/metricscheck) end to end.
# Exits nonzero on any unexpected answer. Run via `make serve-smoke`.
set -eu

BIN=${1:?usage: serve_smoke.sh path/to/permserve path/to/metricscheck}
MC=${2:?usage: serve_smoke.sh path/to/permserve path/to/metricscheck}
TMP=$(mktemp -d)
LOG="$TMP/permserve.log"
PID=
trap '[ -n "$PID" ] && kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

"$BIN" -write-demo -dir "$TMP/idx"
"$BIN" -dir "$TMP/idx" -addr 127.0.0.1:0 -pprof-addr 127.0.0.1:0 \
    -mutex-profile-fraction 2 -block-profile-rate 1000000 >"$LOG" 2>&1 &
PID=$!

fail() {
    echo "serve-smoke: FAIL: $1" >&2
    echo "--- permserve log ---" >&2
    cat "$LOG" >&2
    exit 1
}

# Wait for the daemon to log its bound address (port 0 picks a free one).
ADDR=
i=0
while [ $i -lt 50 ]; do
    ADDR=$(sed -n 's#.*listening on http://\([0-9.:]*\).*#\1#p' "$LOG" | head -n1)
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || fail "daemon exited during startup"
    sleep 0.2
    i=$((i + 1))
done
[ -n "$ADDR" ] || fail "daemon never started listening"

HEALTH=$(curl -sf "http://$ADDR/healthz") || fail "healthz request failed"
[ "$HEALTH" = "ok" ] || fail "healthz said '$HEALTH', want 'ok'"

RESULT=$(curl -sf -d '{"query": "ACGTACGTAC", "k": 3}' \
    "http://$ADDR/v1/indexes/dna-vptree/search") || fail "search request failed"
echo "$RESULT" | grep -q '"results":\[{"id":' || fail "search returned no neighbors: $RESULT"

curl -sf -XPOST "http://$ADDR/v1/indexes/dna-vptree/reload" >/dev/null || fail "hot reload failed"

# The /metrics exposition must parse strictly, hold the histogram
# invariants, and carry the serving families and runtime gauges the
# dashboards key on.
curl -sf "http://$ADDR/metrics" >"$TMP/metrics.txt" || fail "metrics scrape failed"
"$MC" -require permserve_search_requests_total,permserve_queries_total,permserve_reloads_total,permserve_search_latency_seconds,permserve_stage_ns_total,permserve_filter_candidates_total,permserve_refine_distances_total,permserve_uptime_seconds,permserve_goroutines,permserve_heap_alloc_bytes,permserve_heap_allocs,permserve_gc_cycles "$TMP/metrics.txt" \
    || fail "metrics page failed metricscheck"
grep -q 'permserve_search_requests_total{index="dna-vptree"} 1' "$TMP/metrics.txt" \
    || fail "metrics did not count the search"
grep -q 'permserve_reloads_total{index="dna-vptree"} 1' "$TMP/metrics.txt" \
    || fail "metrics did not count the hot reload"

# The -pprof-addr sidecar must serve profiles on its own port.
PPROF_ADDR=$(sed -n 's#.*pprof on http://\([0-9.:]*\)/.*#\1#p' "$LOG" | head -n1)
[ -n "$PPROF_ADDR" ] || fail "daemon never logged its pprof address"
curl -sf "http://$PPROF_ADDR/debug/pprof/heap?debug=1" | grep -q 'HeapAlloc' \
    || fail "pprof heap profile not served"
# Contention profilers are armed by the flags above; the mutex profile must
# actually serve (sampling on means a well-formed page, hits or not).
curl -sf "http://$PPROF_ADDR/debug/pprof/mutex?debug=1" | grep -q 'cycles/second' \
    || fail "pprof mutex profile not served with -mutex-profile-fraction on"

kill "$PID"
STATUS=0
wait "$PID" || STATUS=$?
PID=
[ "$STATUS" -eq 0 ] || fail "daemon exited with status $STATUS on SIGTERM"
grep -q "permserve: bye" "$LOG" || fail "no graceful shutdown on SIGTERM"
echo "serve-smoke: OK (served on $ADDR)"
