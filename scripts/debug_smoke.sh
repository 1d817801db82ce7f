#!/usr/bin/env sh
# Smoke-tests the -debug-addr telemetry endpoint end to end: starts a
# long-enough scenario campaign with the debug server on an ephemeral
# port, samples /debug/vars twice around a 1-second CPU profile, and
# asserts that (a) the pprof endpoint serves a profile and (b) the
# ctsan.executions_completed counter advanced between the samples — the
# observable promise of internal/obs, checked against the real binary.
# The same stage then watches a `ctsan run -shards 8 -procs 1` the same
# way: ctsan.leases_granted and ctsan.leases_completed are the dispatch
# ledger's counters and must both advance while shards finish one after
# another.
#
# A second stage checks the point-cache file the same way: a ctsand
# with a 1 MiB point cache and -cache-dir appends each of a 600-point
# study's records to its file once, through the checkpoint store, and
# ctsan.checkpoint_bytes / ctsan.checkpoint_appends must stay within 2x
# the mean record size of the file — appends cost O(record), not
# O(file). It is the production twin of the benchmark's
# checkpoint.wchar_bytes_per_point. The study overflows the memory
# budget, so its resubmission must be served whole, the evicted records
# read back from the file: 600 hits, and the first stream's bytes.
#
# The campaign itself is sized to outlive the sampling and then killed:
# this script gates the telemetry surface, not campaign completion
# (kill_resume.sh and the test suite cover that).
set -eu
cd "$(dirname "$0")/.."

LOG="$(mktemp)"
WORK="$(mktemp -d)"
PID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$LOG" "$WORK"
}
trap cleanup EXIT

# Build first so the background process is the real binary, not a
# compile step racing the address poll below.
go build -o /tmp/ctsan-smoke ./cmd/ctsan

/tmp/ctsan-smoke scenario run -debug-addr 127.0.0.1:0 \
    -execs 300 -replicas 20000 -workers 2 -seed 1 paper-baseline \
    >/dev/null 2>"$LOG" &
PID=$!

# wait_addr polls $LOG for the ephemeral address the process logs on
# startup and sets ADDR.
wait_addr() {
    ADDR=""
    i=0
    while [ $i -lt 100 ]; do
        ADDR="$(sed -n 's#.*listening on http://\([^/]*\)/.*#\1#p' "$LOG" | head -n 1)"
        [ -n "$ADDR" ] && break
        kill -0 "$PID" 2>/dev/null || { echo "process exited early:" >&2; cat "$LOG" >&2; exit 1; }
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$ADDR" ] || { echo "debug server never logged its address" >&2; cat "$LOG" >&2; exit 1; }
}
wait_addr
echo "debug server at $ADDR" >&2

counter() { # counter <name>
    curl -sf "http://$ADDR/debug/vars" |
        sed -n "s/.*\"ctsan\\.$1\": \\([0-9]*\\).*/\\1/p"
}

V1="$(counter executions_completed)"
[ -n "$V1" ] || { echo "ctsan.executions_completed missing from /debug/vars" >&2; exit 1; }

CODE="$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/debug/pprof/profile?seconds=1")"
[ "$CODE" = "200" ] || { echo "/debug/pprof/profile returned $CODE" >&2; exit 1; }

V2="$(counter executions_completed)"
[ -n "$V2" ] || { echo "second /debug/vars sample failed" >&2; exit 1; }
[ "$V2" -gt "$V1" ] || { echo "executions_completed did not advance ($V1 -> $V2)" >&2; exit 1; }

echo "debug smoke OK: executions_completed $V1 -> $V2, pprof profile served" >&2
kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
PID=""

# Stage 1b: the dispatch ledger's counters on a live `ctsan run`. Eight
# one-point shards run one at a time (-procs 1), each long enough to be
# sampled between.
{
    printf '{"v":1,"name":"debug-smoke-run","points":['
    i=1
    while [ $i -le 8 ]; do
        [ $i -gt 1 ] && printf ','
        printf '{"engine":"san","spec":{"N":5,"Replicas":100000,"TSend":0.0%d}}' $i
        i=$((i + 1))
    done
    printf ']}'
} >"$WORK/run.json"
: >"$LOG"
/tmp/ctsan-smoke run -debug-addr 127.0.0.1:0 -study "$WORK/run.json" -shards 8 -procs 1 \
    -workers 1 -dir "$WORK/run-ckpt" -o "$WORK/run.jsonl" 2>"$LOG" &
PID=$!
wait_addr
G1="" C1="" G2="" C2=""
i=0
while [ $i -lt 600 ] && kill -0 "$PID" 2>/dev/null; do
    G="$(counter leases_granted || true)"
    C="$(counter leases_completed || true)"
    if [ -n "$G" ] && [ -n "$C" ]; then
        [ -n "$G1" ] || { G1="$G"; C1="$C"; }
        G2="$G"; C2="$C"
        [ "$G2" -gt "$G1" ] && [ "$C2" -gt "$C1" ] && break
    fi
    sleep 0.1
    i=$((i + 1))
done
[ -n "$G1" ] || { echo "ctsan run never served its lease counters" >&2; cat "$LOG" >&2; exit 1; }
[ "$G2" -gt "$G1" ] && [ "$C2" -gt "$C1" ] || {
    echo "lease counters did not advance during ctsan run (granted $G1 -> $G2, completed $C1 -> $C2)" >&2
    exit 1
}
echo "debug smoke OK: ctsan run leases_granted $G1 -> $G2, leases_completed $C1 -> $C2" >&2
kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
PID=""

# Stage 2: checkpoint write cost per record, observed on a live ctsand.
go build -o /tmp/ctsand-smoke ./cmd/ctsand
: >"$LOG"
/tmp/ctsand-smoke -addr 127.0.0.1:0 -workers 2 -cache-mb 1 -cache-dir "$WORK/cache" 2>"$LOG" &
PID=$!
wait_addr

# 600 distinct ~2.7 kB records overflow the 1 MiB cache; every one is
# appended to the cache file once, as its point completes.
{
    printf '{"v":1,"name":"debug-smoke","points":['
    i=1
    while [ $i -le 600 ]; do
        [ $i -gt 1 ] && printf ','
        printf '{"engine":"san","spec":{"N":3,"Replicas":200,"TSend":0.%04d}}' $i
        i=$((i + 1))
    done
    printf ']}'
} >"$WORK/spec.json"
ID="$(curl -sf -X POST --data-binary @"$WORK/spec.json" "http://$ADDR/api/v1/studies" |
    sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$ID" ] || { echo "study submission rejected" >&2; exit 1; }
# The results stream follows the live tail to completion.
curl -sfN "http://$ADDR/api/v1/studies/$ID/results" >"$WORK/first.jsonl"

APPENDS="$(counter checkpoint_appends)"
BYTES="$(counter checkpoint_bytes)"
[ -n "$APPENDS" ] && [ -n "$BYTES" ] || { echo "checkpoint counters missing from /debug/vars" >&2; exit 1; }
[ "$APPENDS" -eq 600 ] || { echo "$APPENDS cache-file appends for 600 records; want each once" >&2; exit 1; }
FILE="$WORK/cache/pointcache.jsonl"
FILE_BYTES="$(wc -c <"$FILE")"
FILE_RECORDS="$(wc -l <"$FILE")"
# bytes/appends <= 2 * file_bytes/file_records, cross-multiplied.
[ $((BYTES * FILE_RECORDS)) -le $((2 * FILE_BYTES * APPENDS)) ] || {
    echo "checkpoint store wrote $BYTES bytes for $APPENDS appends; mean record is $((FILE_BYTES / FILE_RECORDS)) bytes" >&2
    exit 1
}
echo "debug smoke OK: $APPENDS checkpoint appends wrote $BYTES bytes ($((BYTES / APPENDS)) per append, mean record $((FILE_BYTES / FILE_RECORDS)))" >&2

# The resubmission: every point a hit, the evicted ones read from the
# file, and the first stream's bytes.
DISK1="$(counter cache_disk_hits)"
ID2="$(curl -sf -X POST --data-binary @"$WORK/spec.json" "http://$ADDR/api/v1/studies" |
    sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$ID2" ] || { echo "resubmission rejected" >&2; exit 1; }
curl -sfN "http://$ADDR/api/v1/studies/$ID2/results" >"$WORK/second.jsonl"
cmp "$WORK/first.jsonl" "$WORK/second.jsonl" || { echo "resubmission streamed other bytes than the first study" >&2; exit 1; }
HITS="$(curl -sf "http://$ADDR/api/v1/studies/$ID2" | sed -n 's/.*"cache_hits":\([0-9]*\).*/\1/p')"
[ "$HITS" = 600 ] || { echo "resubmission: $HITS cache hits of 600 points" >&2; exit 1; }
DISK2="$(counter cache_disk_hits)"
[ "$DISK2" -gt "$DISK1" ] || { echo "no record was read from the cache file; the study no longer overflows the cache" >&2; exit 1; }
echo "debug smoke OK: resubmission served 600/600 from the cache, $((DISK2 - DISK1)) read back from the file, stream byte-identical" >&2
