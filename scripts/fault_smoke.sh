#!/bin/sh
# Smoke test of the fail-stop storage story, end to end over a real
# process: boot permserve with fault injection armed via the
# PERMSERVE_FAULT_FS env knob (a faultfs rule spec routing the mutable
# tier's disk I/O through the fault-injecting filesystem), drive writes
# into the fault, and assert the degraded-mode contract an operator would
# see: a poisoned WAL answers 503 and a storage-degraded seal answers 507,
# /healthz stays 200 but names the degraded index, searches keep serving
# (after a seal whose new WAL segment failed, without serving the sealed
# objects twice), and a restart without the knob recovers every
# acknowledged write with no debris left behind. Run via `make fault-smoke`.
set -eu

BIN=${1:?usage: fault_smoke.sh path/to/permserve}
TMP=$(mktemp -d)
LOG="$TMP/permserve.log"
IDX="sift-mutable"
PID=
cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

fail() {
    echo "fault-smoke: FAIL: $1" >&2
    echo "--- permserve log ---" >&2
    cat "$LOG" >&2
    exit 1
}

# start_daemon DIR [FAULTSPEC] boots permserve over DIR, optionally with
# fault injection armed, and waits for its bound address in $ADDR.
start_daemon() {
    : >"$LOG"
    if [ -n "${2:-}" ]; then
        PERMSERVE_FAULT_FS="$2" "$BIN" -dir "$1" -addr 127.0.0.1:0 >"$LOG" 2>&1 &
    else
        "$BIN" -dir "$1" -addr 127.0.0.1:0 >"$LOG" 2>&1 &
    fi
    PID=$!
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
}

stop_daemon() {
    kill -9 "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
    PID=
}

# vec N prints a 128-dim JSON vector [N, 0, ...]: unique per N and far from
# the demo corpus, so a self-query at k=1 returns its own id at distance 0.
ZEROS=""
i=0
while [ $i -lt 127 ]; do
    ZEROS="$ZEROS,0"
    i=$((i + 1))
done
vec() { printf '[%s%s]' "$1" "$ZEROS"; }

ack_id() { sed -n 's/.*"ids":\[\([0-9]*\)\].*/\1/p'; }

# add N issues one add; echoes "N id" on ack, records the HTTP code in $CODE.
add() {
    CODE=$(curl -s -o "$TMP/resp" -w '%{http_code}' \
        -d "{\"object\": $(vec "$1")}" "http://$ADDR/v1/indexes/$IDX/add") || CODE=000
    AID=$(ack_id <"$TMP/resp")
    [ "$CODE" = 200 ] && [ -n "$AID" ] && echo "$1 $AID"
    return 0
}

# check_acks FILE WHAT asserts every "N id" ack in FILE is served: a k=1
# self-query of coordinate N answers that id at distance 0.
check_acks() {
    while read -r N AID; do
        R=$(curl -sf -d "{\"query\": $(vec "$N"), \"k\": 1}" \
            "http://$ADDR/v1/indexes/$IDX/search") || fail "post-restart query $N failed"
        echo "$R" | grep -q "{\"id\":$AID,\"dist\":0}" \
            || fail "acknowledged add id=$AID (coordinate $N) lost across $2: $R"
    done <"$1"
}

# live prints the mutable index's live count from /statusz.
live() {
    curl -sf "http://$ADDR/statusz" | sed -n 's/.*"live":\([0-9]*\).*/\1/p'
}

# check_degraded WORD asserts /healthz is HTTP 200 (routers must keep the
# replica in rotation) with a JSON body naming the degraded index, statusz
# reports the expected storage state, and searches still answer.
check_degraded() {
    HCODE=$(curl -s -o "$TMP/health" -w '%{http_code}' "http://$ADDR/healthz") || fail "healthz request failed"
    [ "$HCODE" = 200 ] || fail "degraded healthz returned $HCODE, want 200: $(cat "$TMP/health")"
    grep -q '"degraded":{"'"$IDX"'"' "$TMP/health" || fail "healthz does not name the degraded index: $(cat "$TMP/health")"
    grep -q "storage $1" "$TMP/health" || fail "healthz lacks 'storage $1': $(cat "$TMP/health")"
    STATUSZ=$(curl -sf "http://$ADDR/statusz") || fail "statusz failed"
    echo "$STATUSZ" | grep -q "\"state\":\"$1\"" || fail "statusz state is not $1: $STATUSZ"
    curl -sf -d "{\"query\": $(vec 1), \"k\": 3}" \
        "http://$ADDR/v1/indexes/$IDX/search" >/dev/null || fail "search stopped serving while $1"
}

# --- Phase 1: WAL fsync failure => poisoned, writes 503, acks survive ---

"$BIN" -write-demo -dir "$TMP/idx1"
# The 3rd-and-later fsync of any WAL segment fails with EIO (sticky): the
# first add or two are acknowledged, then the WAL poisons itself.
start_daemon "$TMP/idx1" "sync:wal-:3:eio:sticky"

ACKS="$TMP/acks1"
: >"$ACKS"
SAW503=
i=0
while [ $i -lt 10 ]; do
    add $((10000 + i)) >>"$ACKS"
    [ "$CODE" = 503 ] && SAW503=1 && break
    [ "$CODE" = 200 ] || fail "add $i answered $CODE before the fault fired: $(cat "$TMP/resp")"
    i=$((i + 1))
done
[ -n "$SAW503" ] || fail "10 adds never hit the injected WAL fault"
NACKED=$(wc -l <"$ACKS")
[ "$NACKED" -gt 0 ] || fail "no add was acknowledged before the WAL poisoned"
grep -q "poisoned" "$TMP/resp" || fail "503 body does not say poisoned: $(cat "$TMP/resp")"

# Poisoning is sticky: later writes (adds and deletes) answer 503, never
# a retry-and-maybe-succeed (fsyncgate: the failed page may be gone).
add 10900 >/dev/null
[ "$CODE" = 503 ] || fail "add after poisoning answered $CODE, want 503"
DCODE=$(curl -s -o "$TMP/resp" -w '%{http_code}' -d '{"ids": [7]}' \
    "http://$ADDR/v1/indexes/$IDX/delete") || DCODE=000
[ "$DCODE" = 503 ] || fail "delete on a poisoned tree answered $DCODE, want 503"

check_degraded poisoned
stop_daemon

# Restart WITHOUT the knob: a healthy disk again. Every acknowledged write
# must have survived, and the tree must be writable once more.
start_daemon "$TMP/idx1"
HBODY=$(curl -sf "http://$ADDR/healthz") || fail "post-restart healthz failed"
[ "$HBODY" = "ok" ] || fail "post-restart healthz is not plain ok: $HBODY"
check_acks "$ACKS" "the WAL fault"
add 11000 >/dev/null
[ "$CODE" = 200 ] || fail "recovered tree rejected a write with $CODE"
stop_daemon

# --- Phase 2: ENOSPC during seal => read-only, writes 507, debris rolled back ---

"$BIN" -write-demo -dir "$TMP/idx2"
# The first fsync of a tier segment file runs out of disk: WAL appends are
# fine (adds ack normally), sealing fails.
start_daemon "$TMP/idx2" "sync:.seg:1:enospc"

ACKS="$TMP/acks2"
: >"$ACKS"
i=0
while [ $i -lt 3 ]; do
    add $((20000 + i)) >>"$ACKS"
    [ "$CODE" = 200 ] || fail "pre-seal add $i answered $CODE: $(cat "$TMP/resp")"
    i=$((i + 1))
done
FCODE=$(curl -s -o "$TMP/resp" -w '%{http_code}' -XPOST \
    "http://$ADDR/v1/indexes/$IDX/flush") || FCODE=000
[ "$FCODE" = 507 ] || fail "flush into ENOSPC answered $FCODE, want 507: $(cat "$TMP/resp")"
add 20900 >/dev/null
[ "$CODE" = 507 ] || fail "add on a read-only tree answered $CODE, want 507"

check_degraded read-only
stop_daemon

# Restart clean: the failed seal's debris is rolled back via the manifest
# protocol (no stray temp/segment files), the acked adds are still served
# from the WAL, and sealing works again.
start_daemon "$TMP/idx2"
DEBRIS=$(find "$TMP/idx2" -name '*.tmp*' | wc -l)
[ "$DEBRIS" -eq 0 ] || fail "$DEBRIS temp files survived recovery: $(find "$TMP/idx2" -name '*.tmp*')"
check_acks "$ACKS" "the seal fault"
curl -sf -XPOST "http://$ADDR/v1/indexes/$IDX/flush" >/dev/null || fail "post-recovery flush failed"
HBODY=$(curl -sf "http://$ADDR/healthz") || fail "post-recovery healthz failed"
[ "$HBODY" = "ok" ] || fail "post-recovery healthz is not plain ok: $HBODY"
stop_daemon

# --- Phase 3: the seal's new WAL segment cannot be created => poisoned ---

"$BIN" -write-demo -dir "$TMP/idx3"
# The seal writes the tier and commits the manifest, then fails to create
# the next WAL segment: the sealed adds now live in the tier alone, and
# must be served once.
start_daemon "$TMP/idx3" "create:wal-000002:1:eio"

ACKS="$TMP/acks3"
: >"$ACKS"
i=0
while [ $i -lt 3 ]; do
    add $((30000 + i)) >>"$ACKS"
    [ "$CODE" = 200 ] || fail "pre-flush add $i answered $CODE: $(cat "$TMP/resp")"
    i=$((i + 1))
done
LIVE=$(live)
[ -n "$LIVE" ] || fail "statusz reports no live count"
FCODE=$(curl -s -o "$TMP/resp" -w '%{http_code}' -XPOST \
    "http://$ADDR/v1/indexes/$IDX/flush") || FCODE=000
[ "$FCODE" = 503 ] || fail "flush into a failing WAL create answered $FCODE, want 503: $(cat "$TMP/resp")"

check_degraded poisoned
R=$(curl -sf -d "{\"query\": $(vec 30000), \"k\": 5}" \
    "http://$ADDR/v1/indexes/$IDX/search") || fail "self-query after the failed rotation failed"
DUPS=$(echo "$R" | grep -o '"id":[0-9]*' | sort | uniq -d)
[ -z "$DUPS" ] || fail "k=5 self-query repeats $DUPS after the failed rotation: $R"
[ "$(live)" = "$LIVE" ] || fail "statusz live went $LIVE -> $(live) across the failed rotation"
stop_daemon

start_daemon "$TMP/idx3"
check_acks "$ACKS" "the failed rotation"
stop_daemon

echo "fault-smoke: OK (poisoned=503 and read-only=507 served degraded, nothing served twice after a failed WAL rotation, zero acked-write loss across all three faults)"
