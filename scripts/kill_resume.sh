#!/usr/bin/env sh
# End-to-end crash-safety check for the sharded campaign executor
# (cmd/ctsan), against the real installed binary — the CI twin of the
# in-package differential test TestKillAndResume:
#
#   1. run an uninterrupted sharded campaign → reference JSONL;
#   2. start a throttled shard, SIGKILL it once its checkpoint holds at
#      least two records but not all of them;
#   3. resume under the supervisor and merge;
#   4. the resumed output must be byte-identical to the reference, and
#      the records that survived the kill must be reused verbatim;
#   5. power cut: a shard fsyncs once per time slice, not per record, so
#      losing power (unlike losing the process) can keep any prefix of
#      the last slice. Cut one copy of the surviving store mid-way
#      through its last record and another at the record boundary before
#      it, resume each, and require the reference bytes again.
#
# Exit status 0 iff all of that holds.
set -eu
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

CTSAN="$WORK/ctsan"
go build -o "$CTSAN" ./cmd/ctsan

# A small cross-engine study, hand-written the way an operator would:
# omitted point fields default to zero (the strict decoder only rejects
# *unknown* fields). Point count (6) and the shard throttle below are
# sized so the kill reliably lands mid-range.
SPEC="$WORK/study.json"
cat >"$SPEC" <<'EOF'
{
  "v": 1,
  "name": "kill-resume-ci",
  "points": [
    {"engine": "san", "spec": {"N": 3, "Replicas": 60}},
    {"engine": "emulation", "spec": {"N": 3, "Executions": 25}},
    {"engine": "san", "spec": {"Name": "pinned", "N": 4, "Replicas": 40, "Seed": 99}},
    {"engine": "emulation", "spec": {"N": 3, "Executions": 25, "TimeoutT": 30}},
    {"engine": "san", "spec": {"N": 5, "Replicas": 40, "TSend": 0.05}},
    {"engine": "san", "spec": {"N": 3, "Replicas": 40, "TSend": 0.1}}
  ]
}
EOF

echo "== reference: uninterrupted 2-shard run"
"$CTSAN" run -study "$SPEC" -seed 21 -shards 2 \
    -dir "$WORK/ref-ckpt" -o "$WORK/reference.jsonl" -backoff 100ms

echo "== interrupted: throttled shard, SIGKILL mid-range"
DIR="$WORK/ckpt"
STORE="$DIR/shard-000000-000006.jsonl"
"$CTSAN" shard -study "$SPEC" -seed 21 -range 0:6 -dir "$DIR" \
    -workers 1 -throttle 3s 2>"$WORK/shard.log" &
SHARD_PID=$!

# Wait until the checkpoint holds at least two intact records (so the
# power-cut stage below has a survivor to keep and a record to lose).
i=0
while [ ! -f "$STORE" ] || [ "$(wc -l <"$STORE")" -lt 2 ]; do
  i=$((i + 1))
  if [ "$i" -gt 600 ]; then
    echo "shard produced no checkpoint record in time" >&2
    cat "$WORK/shard.log" >&2
    kill -9 "$SHARD_PID" 2>/dev/null || true
    exit 1
  fi
  sleep 0.1
done
kill -9 "$SHARD_PID"
wait "$SHARD_PID" 2>/dev/null || true

SURVIVED="$(wc -l <"$STORE")"
if [ "$SURVIVED" -ge 6 ]; then
  echo "kill landed after the shard finished ($SURVIVED/6 points); not a mid-range kill" >&2
  exit 1
fi
echo "   killed with $SURVIVED/6 points checkpointed"
head -n "$SURVIVED" "$STORE" >"$WORK/survived.jsonl"

echo "== resume under the supervisor"
"$CTSAN" run -study "$SPEC" -seed 21 -shards 1 \
    -dir "$DIR" -o "$WORK/resumed.jsonl" -backoff 100ms

echo "== verify"
# Surviving records were reused verbatim, not re-executed.
head -n "$SURVIVED" "$STORE" >"$WORK/head.jsonl"
cmp "$WORK/survived.jsonl" "$WORK/head.jsonl" || {
  echo "records that survived the SIGKILL changed across resume" >&2
  exit 1
}
# The resumed merge is byte-identical to the uninterrupted run.
cmp "$WORK/reference.jsonl" "$WORK/resumed.jsonl" || {
  echo "kill-and-resume output differs from the uninterrupted run" >&2
  exit 1
}

echo "== power cut: resume from stores that lost their unsynced tail"
SIZE="$(wc -c <"$WORK/survived.jsonl")"
LAST="$(tail -n 1 "$WORK/survived.jsonl" | wc -c)"
BOUNDARY=$((SIZE - LAST))
for CUT in $((BOUNDARY + LAST / 2)) "$BOUNDARY"; do
  CUTDIR="$WORK/cut-$CUT"
  mkdir "$CUTDIR"
  head -c "$CUT" "$WORK/survived.jsonl" >"$CUTDIR/shard-000000-000006.jsonl"
  "$CTSAN" run -study "$SPEC" -seed 21 -shards 1 \
      -dir "$CUTDIR" -o "$WORK/cut-$CUT.jsonl" -backoff 100ms
  cmp "$WORK/reference.jsonl" "$WORK/cut-$CUT.jsonl" || {
    echo "resume from a store cut at byte $CUT of $SIZE differs from the uninterrupted run" >&2
    exit 1
  }
  echo "   cut at byte $CUT of $SIZE: byte-identical"
done
echo "OK: kill-and-resume output is byte-identical ($(wc -l <"$WORK/resumed.jsonl") points)"
