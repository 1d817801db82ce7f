#!/usr/bin/env sh
# Smoke-tests fleet dispatch end to end against the real binaries:
# starts ctsand, submits a study under ?mode=fleet, serves it with two
# `ctsan worker` processes — SIGKILLing one mid-lease so the
# coordinator must expire and re-lease its range — and byte-compares
# the coordinator's folded JSONL against a single-process `ctsan run`
# of the same study. A killed worker may cost a lease of re-execution;
# it must never change a result bit, and no worker, the killed one
# included, may write anything under its -dir (a worker holds a lease's
# records in memory until the upload). Then a worker pinned to a study
# the coordinator will never lease must fail at once, not retry forever.
# Last, the coordinator itself is SIGKILLed and restarted on the same
# address under a discovering worker that holds a lease: the worker must
# serve the study submitted to the new daemon (another seed) with every
# upload accepted, and its stream must equal `ctsan run` of that study.
set -eu
cd "$(dirname "$0")/.."

LOG="$(mktemp)"
VLOG="$(mktemp)"
WLOG="$(mktemp)"
SPEC="$(mktemp)"
FLEET="$(mktemp)"
REF="$(mktemp)"
WORKDIR="$(mktemp -d)"
PID=""
VPID=""
WPID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    [ -n "$VPID" ] && kill -9 "$VPID" 2>/dev/null || true
    [ -n "$WPID" ] && kill "$WPID" 2>/dev/null || true
    rm -f "$LOG" "$VLOG" "$WLOG" "$SPEC" "$FLEET" "$REF"
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

go build -o /tmp/ctsand-fleet-smoke ./cmd/ctsand
go build -o /tmp/ctsan-fleet-smoke ./cmd/ctsan

cat >"$SPEC" <<'EOF'
{"v":1,"name":"fleet-smoke","points":[
  {"engine":"san","spec":{"N":3,"Replicas":200}},
  {"engine":"san","spec":{"N":5,"Replicas":200}},
  {"engine":"san","spec":{"N":7,"Replicas":100}}]}
EOF

# The single-process ground truth the fleet must reproduce byte for
# byte (ctsand's default seed is 1).
/tmp/ctsan-fleet-smoke run -study "$SPEC" -seed 1 -shards 1 \
    -dir "$WORKDIR/ref" -o "$REF" 2>/dev/null

# Every worker's -dir exists and must stay empty.
mkdir -p "$WORKDIR/victim" "$WORKDIR/survivor" "$WORKDIR/pinned" "$WORKDIR/discoverer"
wrote_nothing() { # wrote_nothing <worker>...
    for w in "$@"; do
        [ -z "$(ls -A "$WORKDIR/$w")" ] || {
            echo "worker $w wrote under its -dir:" >&2
            ls -lA "$WORKDIR/$w" >&2
            exit 1
        }
    done
}

start_ctsand() { # start_ctsand <addr>: sets PID and ADDR
    : >"$LOG"
    # Short lease TTL so the killed worker's range re-leases quickly.
    /tmp/ctsand-fleet-smoke -addr "$1" -lease-ttl 1s 2>"$LOG" &
    PID=$!
    ADDR=""
    i=0
    while [ $i -lt 100 ]; do
        ADDR="$(sed -n 's#.*listening on http://\([^/]*\)/.*#\1#p' "$LOG" | head -n 1)"
        [ -n "$ADDR" ] && break
        kill -0 "$PID" 2>/dev/null || { echo "ctsand exited early:" >&2; cat "$LOG" >&2; exit 1; }
        sleep 0.1
        i=$((i + 1))
    done
    [ -n "$ADDR" ] || { echo "ctsand never logged its address" >&2; cat "$LOG" >&2; exit 1; }
    echo "campaign service at $ADDR" >&2
}

submit() { # submit <query>: prints the new study's id
    curl -sf -X POST --data-binary @"$SPEC" "http://$ADDR/api/v1/studies$1" |
        sed -n 's/.*"id":"\([^"]*\)".*/\1/p'
}

start_ctsand 127.0.0.1:0
ID="$(submit '?mode=fleet')"
[ -n "$ID" ] || { echo "fleet submission rejected" >&2; exit 1; }

fleet_field() { # fleet_field <name>
    curl -sf "http://$ADDR/api/v1/studies/$ID" |
        sed -n "s/.*\"$1\":\([0-9]*\).*/\1/p"
}

# The victim worker throttles 30s after each completed point, so it is
# guaranteed to be holding (and renewing) a lease when the SIGKILL
# lands.
/tmp/ctsan-fleet-smoke worker -server "http://$ADDR" -study-id "$ID" \
    -name victim -dir "$WORKDIR/victim" -workers 1 -throttle 30s 2>"$VLOG" &
VPID=$!

i=0
while [ $i -lt 300 ]; do
    grep -q " done (" "$VLOG" && break
    kill -0 "$VPID" 2>/dev/null || { echo "victim exited early:" >&2; cat "$VLOG" >&2; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
grep -q " done (" "$VLOG" || { echo "victim never completed a point" >&2; cat "$VLOG" >&2; exit 1; }

kill -9 "$VPID"
wait "$VPID" 2>/dev/null || true
VPID=""
echo "victim worker SIGKILLed mid-lease" >&2

# The survivor finishes the study (it exits when the coordinator
# answers done), re-executing the orphaned range after the TTL.
/tmp/ctsan-fleet-smoke worker -server "http://$ADDR" -study-id "$ID" \
    -name survivor -dir "$WORKDIR/survivor" -workers 1 2>"$WLOG" &
WPID=$!

# The results stream follows the live tail, so this curl returns
# exactly when the study is done.
curl -sfN "http://$ADDR/api/v1/studies/$ID/results" >"$FLEET"
wait "$WPID" || { echo "survivor worker failed:" >&2; cat "$WLOG" >&2; exit 1; }
WPID=""

cmp "$FLEET" "$REF" || {
    echo "fleet stream differs from single-process ctsan run" >&2
    exit 1
}
[ -s "$FLEET" ] || { echo "empty fleet result stream" >&2; exit 1; }

EXPIRED="$(fleet_field expired)"
[ -n "$EXPIRED" ] && [ "$EXPIRED" -ge 1 ] || {
    echo "coordinator never expired the victim's lease (expired=$EXPIRED)" >&2
    exit 1
}
wrote_nothing victim survivor

# A worker pinned to a study the coordinator will never lease — a
# local-mode one (409) or an unknown id (404) — exits 1 with the
# coordinator's reason instead of retrying until killed.
LOCAL="$(submit '')"
[ -n "$LOCAL" ] || { echo "local submission rejected" >&2; exit 1; }
refused() { # refused <study-id> <reason>
    /tmp/ctsan-fleet-smoke worker -server "http://$ADDR" -study-id "$1" \
        -name pinned -dir "$WORKDIR/pinned" 2>"$WLOG" &
    WPID=$!
    i=0
    while [ $i -lt 30 ] && kill -0 "$WPID" 2>/dev/null; do
        sleep 0.1
        i=$((i + 1))
    done
    kill -0 "$WPID" 2>/dev/null && {
        echo "worker pinned to $1 still running after 3s:" >&2
        cat "$WLOG" >&2
        exit 1
    }
    RC=0
    wait "$WPID" || RC=$?
    WPID=""
    [ "$RC" = "1" ] && grep -q "$2" "$WLOG" || {
        echo "worker pinned to $1 exited $RC, want 1 naming '$2':" >&2
        cat "$WLOG" >&2
        exit 1
    }
}
refused "$LOCAL" "not fleet-dispatched"
refused "s999999" "unknown study"

kill -TERM "$PID"
RC=0
wait "$PID" || RC=$?
PID=""
[ "$RC" = "0" ] || { echo "graceful shutdown exited $RC" >&2; cat "$LOG" >&2; exit 1; }

# A coordinator restart. A fresh daemon numbers its studies from 1, so
# the study the discovering worker holds a lease of (seed 3) and the one
# submitted after the restart (seed 2) are each their daemon's first:
# were ids to repeat across restarts, the worker would take the second
# for the first and serve it with the first's grid, every upload
# rejected, forever.
/tmp/ctsan-fleet-smoke run -study "$SPEC" -seed 2 -shards 1 \
    -dir "$WORKDIR/ref2" -o "$REF" 2>/dev/null
start_ctsand 127.0.0.1:0
BEFORE="$(submit '?mode=fleet&seed=3')"
[ -n "$BEFORE" ] || { echo "fleet submission rejected" >&2; exit 1; }
/tmp/ctsan-fleet-smoke worker -server "http://$ADDR" -name discoverer \
    -dir "$WORKDIR/discoverer" -workers 1 -throttle 500ms -idle-exit 2s 2>"$WLOG" &
WPID=$!
i=0
while [ $i -lt 300 ]; do
    grep -q " done (" "$WLOG" && break
    kill -0 "$WPID" 2>/dev/null || { echo "discovering worker exited early:" >&2; cat "$WLOG" >&2; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
grep -q " done (" "$WLOG" || { echo "discovering worker never completed a point" >&2; cat "$WLOG" >&2; exit 1; }

kill -9 "$PID"
wait "$PID" 2>/dev/null || true
echo "ctsand SIGKILLed under a worker holding a lease of $BEFORE" >&2
start_ctsand "$ADDR"
AFTER="$(submit '?mode=fleet&seed=2')"
[ -n "$AFTER" ] || { echo "fleet submission to the restarted daemon rejected" >&2; exit 1; }
[ "$AFTER" != "$BEFORE" ] || { echo "restarted daemon reused study id $AFTER" >&2; exit 1; }

# Every upload reply the restarted daemon sends must say "rejected":0
# (it logs each one), until the worker has served the study and gone
# idle.
i=0
while kill -0 "$WPID" 2>/dev/null; do
    ! grep ' upload: ' "$LOG" | grep -qv ' accepted, 0 rejected' || {
        echo "the restarted daemon rejected uploads of the worker:" >&2
        cat "$LOG" "$WLOG" >&2
        exit 1
    }
    [ $i -lt 1200 ] || { echo "discovering worker never went idle:" >&2; cat "$WLOG" >&2; exit 1; }
    sleep 0.1
    i=$((i + 1))
done
wait "$WPID" || { echo "discovering worker failed:" >&2; cat "$WLOG" >&2; exit 1; }
WPID=""
UPLOADS="$(grep -c ' upload: ' "$LOG" || true)"
! grep ' upload: ' "$LOG" | grep -qv ' accepted, 0 rejected' && [ "$UPLOADS" -ge 1 ] || {
    echo "restarted daemon rejected uploads (or got none):" >&2
    cat "$LOG" "$WLOG" >&2
    exit 1
}
curl -sfN "http://$ADDR/api/v1/studies/$AFTER/results" >"$FLEET"
cmp "$FLEET" "$REF" || {
    echo "fleet stream after the restart differs from ctsan run -seed 2" >&2
    exit 1
}
wrote_nothing pinned discoverer

kill -TERM "$PID"
RC=0
wait "$PID" || RC=$?
PID=""
[ "$RC" = "0" ] || { echo "graceful shutdown after the restart exited $RC" >&2; cat "$LOG" >&2; exit 1; }

echo "fleet smoke OK: $EXPIRED lease(s) expired after SIGKILL, stream byte-identical to ctsan run, pinned worker refused at once, clean drain; after a ctsand restart the worker served the new study ($UPLOADS uploads, 0 rejected); no worker wrote a file" >&2
