#!/bin/sh
# Smoke test of the sharded serving tier, end to end over real processes:
#
#   shardsplit --> 2x permserve (one per shard) --> permrouter
#                  1x permserve (unsharded baseline)
#
# Asserts that shardsplit writes the same SW-graph files on one core as on
# every core, that the router's answer is byte-identical to the unsharded
# daemon's (single and batch), that killing a shard yields the documented
# fail-open "partial": true answer on one router and a 502 on a fail-closed
# one, and that the router shuts down gracefully. Run via `make shard-smoke`.
set -eu

BIN=${1:?usage: shard_smoke.sh path/to/bin-dir}
TMP=$(mktemp -d)
PIDS=""
trap 'for p in $PIDS; do kill "$p" 2>/dev/null || true; done; rm -rf "$TMP"' EXIT INT TERM

fail() {
    echo "shard-smoke: FAIL: $1" >&2
    for f in "$TMP"/*.log; do
        echo "--- $f ---" >&2
        cat "$f" >&2
    done
    exit 1
}

# wait_addr LOGFILE NAME -> echoes the bound address once logged.
wait_addr() {
    i=0
    while [ $i -lt 50 ]; do
        ADDR=$(sed -n 's#.*listening on http://\([0-9.:]*\).*#\1#p' "$1" | head -n1)
        [ -n "$ADDR" ] && { echo "$ADDR"; return 0; }
        sleep 0.2
        i=$((i + 1))
    done
    fail "$2 never started listening"
}

# 1. Split: a 2-shard DNA/VP-tree set plus an unsharded baseline over the
#    same corpus, same seeds.
"$BIN/shardsplit" -out "$TMP/idx" -set dna -dataset dna -n 1200 -shards 2 -method vptree >"$TMP/split.log" 2>&1 \
    || fail "shardsplit (sharded) failed"
"$BIN/shardsplit" -out "$TMP/base" -set dna -dataset dna -n 1200 -shards 1 -method vptree >>"$TMP/split.log" 2>&1 \
    || fail "shardsplit (baseline) failed"
[ -f "$TMP/idx/dna.shardset.json" ] || fail "no shard-set manifest written"

# 1b. Reproducible graph files: an SW-graph split built on one core and one
#     built on every core must write byte-identical shard files.
GOMAXPROCS=1 "$BIN/shardsplit" -out "$TMP/sw1" -set dna -dataset dna -n 1200 -shards 2 -method sw-graph >>"$TMP/split.log" 2>&1 \
    || fail "shardsplit (sw-graph, one core) failed"
"$BIN/shardsplit" -out "$TMP/swn" -set dna -dataset dna -n 1200 -shards 2 -method sw-graph >>"$TMP/split.log" 2>&1 \
    || fail "shardsplit (sw-graph, every core) failed"
for F in "$TMP"/sw1/shard*/dna.psix; do
    cmp -s "$F" "$TMP/swn/${F#"$TMP"/sw1/}" || fail "sw-graph shard file ${F#"$TMP"/sw1/} differs between one core and every core"
done

# 2. Boot the fleet on free ports.
"$BIN/permserve" -dir "$TMP/idx/shard0" -addr 127.0.0.1:0 >"$TMP/s0.log" 2>&1 &
PIDS="$PIDS $!"
"$BIN/permserve" -dir "$TMP/idx/shard1" -addr 127.0.0.1:0 >"$TMP/s1.log" 2>&1 &
S1_PID=$!
PIDS="$PIDS $S1_PID"
"$BIN/permserve" -dir "$TMP/base/shard0" -addr 127.0.0.1:0 >"$TMP/sb.log" 2>&1 &
PIDS="$PIDS $!"
S0=$(wait_addr "$TMP/s0.log" "shard 0")
S1=$(wait_addr "$TMP/s1.log" "shard 1")
SB=$(wait_addr "$TMP/sb.log" "baseline")

"$BIN/permrouter" -shards "http://$S0,http://$S1" -addr 127.0.0.1:0 >"$TMP/rt.log" 2>&1 &
RT_PID=$!
PIDS="$PIDS $RT_PID"
"$BIN/permrouter" -shards "http://$S0,http://$S1" -fail-open -addr 127.0.0.1:0 >"$TMP/rto.log" 2>&1 &
PIDS="$PIDS $!"
RT=$(wait_addr "$TMP/rt.log" "router (fail-closed)")
RTO=$(wait_addr "$TMP/rto.log" "router (fail-open)")

# 3. Readiness: router healthz proxies shard health.
HEALTH=$(curl -sf "http://$RT/healthz") || fail "router healthz failed"
[ "$HEALTH" = "ok" ] || fail "router healthz said '$HEALTH'"

# 4. Identity: router answer == unsharded answer, byte for byte (single and
#    batch), for a few queries.
for BODY in \
    '{"query": "ACGTACGTACGTACGT", "k": 5}' \
    '{"query": "TTTTGGGGCCCCAAAA", "k": 3}' \
    '{"queries": ["ACGTACGTAC", "GGGGGGGGGG"], "k": 4}'; do
    ROUTED=$(curl -sf -d "$BODY" "http://$RT/v1/indexes/dna/search") || fail "router search failed: $BODY"
    DIRECT=$(curl -sf -d "$BODY" "http://$SB/v1/indexes/dna/search") || fail "baseline search failed: $BODY"
    [ "$ROUTED" = "$DIRECT" ] || fail "router answer differs from unsharded baseline
  body:   $BODY
  router: $ROUTED
  direct: $DIRECT"
done
echo "$ROUTED" | grep -q '"id":' || fail "search returned no neighbors: $ROUTED"

# 5. Degraded modes: kill shard 1, then the fail-open router answers
#    partial while the fail-closed one 502s (and neither hangs).
kill "$S1_PID" && wait "$S1_PID" 2>/dev/null || true
Q='{"query": "ACGTACGTACGTACGT", "k": 5}'
PARTIAL=$(curl -sf -d "$Q" "http://$RTO/v1/indexes/dna/search") || fail "fail-open search failed with a dead shard"
echo "$PARTIAL" | grep -q '"partial":true' || fail "fail-open answer not marked partial: $PARTIAL"
echo "$PARTIAL" | grep -q '"failed_shards":\[1\]' || fail "fail-open answer does not name the dead shard: $PARTIAL"
CODE=$(curl -s -o /dev/null -w '%{http_code}' -d "$Q" "http://$RT/v1/indexes/dna/search")
[ "$CODE" = "502" ] || fail "fail-closed router answered $CODE with a dead shard, want 502"
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$RT/healthz")
[ "$CODE" = "503" ] || fail "router healthz answered $CODE with a dead shard, want 503"

# 5b. Metrics: a few more failing queries push the dead shard's replica
#     past the ejection threshold, then the scraped exposition must parse
#     strictly and show the shard/replica families with the failure visible.
for i in 1 2 3; do
    curl -s -o /dev/null -d "$Q" "http://$RT/v1/indexes/dna/search" || true
done
curl -sf "http://$RT/metrics" >"$TMP/rt_metrics.txt" || fail "router metrics scrape failed"
"$BIN/metricscheck" -require permrouter_requests_total,permrouter_request_latency_seconds,permrouter_shard_latency_seconds,permrouter_shard_failovers_total,permrouter_replica_requests_total,permrouter_replica_failures_total,permrouter_replica_latency_seconds,permrouter_replica_ejections_total,permrouter_replica_readmissions_total "$TMP/rt_metrics.txt" \
    || fail "router metrics page failed metricscheck"
grep 'permrouter_replica_failures_total{shard="1",replica="0"}' "$TMP/rt_metrics.txt" | grep -qv ' 0$' \
    || fail "dead shard's replica failure counter did not move"
grep 'permrouter_replica_ejections_total{shard="1",replica="0"}' "$TMP/rt_metrics.txt" | grep -qv ' 0$' \
    || fail "dead shard's replica ejection was not counted"

# 6. Graceful shutdown.
kill "$RT_PID"
STATUS=0
wait "$RT_PID" || STATUS=$?
[ "$STATUS" -eq 0 ] || fail "router exited with status $STATUS on SIGTERM"
grep -q "permrouter: bye" "$TMP/rt.log" || fail "no graceful router shutdown on SIGTERM"

echo "shard-smoke: OK (router on $RT over shards $S0 + $S1, baseline $SB, fail-open on $RTO)"
