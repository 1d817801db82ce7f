#!/usr/bin/env sh
# Smoke-tests the campaign service end to end against the real binary:
# starts ctsand on an ephemeral port, submits the same small study
# twice, and asserts (a) both result streams are byte-identical — the
# determinism promise over HTTP — (b) the second run is served >= 90%
# from the content-addressed result cache, (c) the same spec resubmitted
# under a study name JSON escapes (a<b&c) is served from the cache too,
# and two concurrent readers of its stream both get the bytes of a cold
# run of the renamed spec on a second, cacheless daemon, and (d) SIGTERM
# drains the service to a clean exit 0. Before any of that it submits two hostile
# but well-formed specs that used to be accepted and then kill the
# process from inside the worker pool; they must be refused with a 400
# that says why, and the daemon must still be there for (a)-(c).
set -eu
cd "$(dirname "$0")/.."

LOG="$(mktemp)"
COLDLOG="$(mktemp)"
SPEC="$(mktemp)"
RENAMED="$(mktemp)"
R1="$(mktemp)"
R2="$(mktemp)"
R3="$(mktemp)"
R4="$(mktemp)"
COLD="$(mktemp)"
PID=""
COLDPID=""
cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    [ -n "$COLDPID" ] && kill "$COLDPID" 2>/dev/null || true
    rm -f "$LOG" "$COLDLOG" "$SPEC" "$RENAMED" "$R1" "$R2" "$R3" "$R4" "$COLD"
}
trap cleanup EXIT

# Build first so the background process is the real binary, not a
# compile step racing the address poll below.
go build -o /tmp/ctsand-smoke ./cmd/ctsand

# listening <pid> <log>: the address the daemon logs on startup (its
# port is ephemeral); nothing, and the log on stderr, if it never does.
listening() {
    i=0
    while [ $i -lt 100 ]; do
        A="$(sed -n 's#.*listening on http://\([^/]*\)/.*#\1#p' "$2" | head -n 1)"
        [ -n "$A" ] && { echo "$A"; return; }
        kill -0 "$1" 2>/dev/null || { echo "ctsand exited early:" >&2; cat "$2" >&2; exit 1; }
        sleep 0.1
        i=$((i + 1))
    done
    echo "ctsand never logged its address" >&2
    cat "$2" >&2
    exit 1
}

/tmp/ctsand-smoke -addr 127.0.0.1:0 -workers 2 -max-active 1 2>"$LOG" &
PID=$!
ADDR="$(listening "$PID" "$LOG")"
[ -n "$ADDR" ] || exit 1
echo "campaign service at $ADDR" >&2

cat >"$SPEC" <<'EOF'
{"v":1,"name":"smoke","points":[
  {"engine":"san","spec":{"N":3,"Replicas":200}},
  {"engine":"san","spec":{"N":5,"Replicas":200}},
  {"engine":"san","spec":{"N":7,"Replicas":100}}]}
EOF

# Hostile submit: FD QoS with TM >= TMR (sanmodel's constructor panic)
# and a negative heartbeat period (fd's). Each must come back 400 with
# the reason in the body; then /healthz must still answer 200.
hostile() { # hostile <point JSON> <reason the body must contain>
    BODY="$(curl -s -o - -w '\n%{http_code}' -X POST \
        -d "{\"v\":1,\"name\":\"hostile\",\"points\":[$1]}" "http://$ADDR/api/v1/studies")" ||
        { echo "hostile submit got no answer: $1" >&2; cat "$LOG" >&2; exit 1; }
    CODE="$(printf '%s' "$BODY" | tail -n 1)"
    [ "$CODE" = "400" ] || { echo "hostile submit $1: status $CODE, want 400: $BODY" >&2; exit 1; }
    printf '%s' "$BODY" | grep -q "$2" ||
        { echo "hostile submit $1: 400 without the reason \"$2\": $BODY" >&2; exit 1; }
}
hostile '{"engine":"san","spec":{"N":3,"Replicas":5,"TMR":10,"TM":10}}' 'FD QoS needs'
hostile '{"engine":"emulation","spec":{"N":3,"Executions":5,"TimeoutT":10,"PeriodTh":-1}}' 'negative heartbeat period'
curl -sf "http://$ADDR/healthz" >/dev/null ||
    { echo "ctsand stopped answering /healthz after the hostile submits:" >&2; cat "$LOG" >&2; exit 1; }

submit() { # submit [spec file [address]]
    curl -sf -X POST --data-binary @"${1:-$SPEC}" "http://${2:-$ADDR}/api/v1/studies" |
        sed -n 's/.*"id":"\([^"]*\)".*/\1/p'
}
field() { # field <id> <name>
    curl -sf "http://$ADDR/api/v1/studies/$1" |
        sed -n "s/.*\"$2\":\([0-9]*\).*/\1/p"
}

ID1="$(submit)"
[ -n "$ID1" ] || { echo "first submission rejected" >&2; exit 1; }
# The results stream follows the live tail to completion, so this curl
# returns exactly when the study is done.
curl -sfN "http://$ADDR/api/v1/studies/$ID1/results" >"$R1"

ID2="$(submit)"
[ -n "$ID2" ] || { echo "second submission rejected" >&2; exit 1; }
curl -sfN "http://$ADDR/api/v1/studies/$ID2/results" >"$R2"

cmp "$R1" "$R2" || { echo "warm-cache stream differs from cold-cache stream" >&2; exit 1; }
[ -s "$R1" ] || { echo "empty result stream" >&2; exit 1; }

POINTS="$(field "$ID2" points)"
HITS="$(field "$ID2" cache_hits)"
[ -n "$POINTS" ] && [ -n "$HITS" ] || { echo "status fields missing for $ID2" >&2; exit 1; }
# The warm run must be served >= 90% from the result cache.
[ $((HITS * 10)) -ge $((POINTS * 9)) ] || {
    echo "warm run cache hits $HITS of $POINTS points (< 90%)" >&2
    exit 1
}

# The renamed resubmission: every point a cache hit whose stored result
# names the first study, so the new name is spliced in, escaped as
# encoding/json escapes it.
sed 's/"name":"smoke"/"name":"a<b\&c"/' "$SPEC" >"$RENAMED"
grep -q '"name":"a<b&c"' "$RENAMED" || { echo "renamed spec lost its name" >&2; exit 1; }
ID3="$(submit "$RENAMED")"
[ -n "$ID3" ] || { echo "renamed submission rejected" >&2; exit 1; }
curl -sfN "http://$ADDR/api/v1/studies/$ID3/results" >"$R3" &
READ3=$!
curl -sfN "http://$ADDR/api/v1/studies/$ID3/results" >"$R4" &
READ4=$!
wait "$READ3" || { echo "first concurrent read of the renamed study failed" >&2; exit 1; }
wait "$READ4" || { echo "second concurrent read of the renamed study failed" >&2; exit 1; }
HITS3="$(field "$ID3" cache_hits)"
[ "$HITS3" = "$POINTS" ] || { echo "renamed resubmission: $HITS3 cache hits of $POINTS points" >&2; exit 1; }

/tmp/ctsand-smoke -addr 127.0.0.1:0 -workers 2 -max-active 1 -cache-mb 0 2>"$COLDLOG" &
COLDPID=$!
COLDADDR="$(listening "$COLDPID" "$COLDLOG")"
[ -n "$COLDADDR" ] || exit 1
ID4="$(submit "$RENAMED" "$COLDADDR")"
[ -n "$ID4" ] || { echo "renamed submission rejected by the cacheless daemon" >&2; exit 1; }
curl -sfN "http://$COLDADDR/api/v1/studies/$ID4/results" >"$COLD"
kill -TERM "$COLDPID"
wait "$COLDPID" || true
COLDPID=""
grep -q '"study":"a\\u003cb\\u0026c"' "$COLD" || { echo "cold renamed stream does not name a<b&c escaped" >&2; exit 1; }
cmp "$R3" "$COLD" || { echo "renamed warm stream (reader 1) differs from its cold run" >&2; exit 1; }
cmp "$R4" "$COLD" || { echo "renamed warm stream (reader 2) differs from its cold run" >&2; exit 1; }

kill -TERM "$PID"
RC=0
wait "$PID" || RC=$?
PID=""
[ "$RC" = "0" ] || { echo "graceful shutdown exited $RC" >&2; cat "$LOG" >&2; exit 1; }

echo "service smoke OK: hostile specs refused (400), $HITS/$POINTS cache hits on warm run, streams byte-identical, renamed resubmission read twice at once equals its cold run, clean drain" >&2
