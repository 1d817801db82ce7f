#!/usr/bin/env sh
# Fuzz smoke: runs each listed fuzz target for FUZZTIME (default 10s) of
# fresh input generation. `go test ./...` only replays the committed seed
# corpora; this is where the dispatch ledger's state machine and the wire
# and HTTP surfaces meet inputs nobody wrote down. A crasher is written
# to the package's testdata/fuzz/ — commit it with the fix.
set -eu
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"
while read -r pkg target; do
    echo "== $pkg $target ($FUZZTIME)"
    go test "$pkg" -run '^$' -fuzz "^$target\$" -fuzztime "$FUZZTIME"
done <<'TARGETS'
./internal/shard FuzzLedger
./campaign FuzzDecodeStudy
./campaign FuzzDecodeShardRecord
./campaign FuzzHitSplice
./internal/checkpoint FuzzScan
./internal/checkpoint FuzzOpenRepairs
./internal/metrics FuzzDigestQuantile
./internal/metrics FuzzDigestUnmarshalBinary
./internal/server FuzzSubmitStudy
./internal/des FuzzQueue
TARGETS
