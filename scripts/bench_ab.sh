#!/usr/bin/env sh
# Gates wall-clock time as a same-host A/B: the benchmark rows below are
# built from <base-ref> (checked out in a temporary git worktree) and from
# the working tree, run in ten alternating pairs on this machine, and a
# row fails when the median over the pairs of its ns/op ratio (working
# tree over base) exceeds 1.25. Both sides see the same CPU, load and
# frequency, so no committed baseline is needed and none can go stale.
# Allocation counts are not gated here: testdata/costs.golden holds them
# exactly (costs_test.go in tier-1).
#
# The rows are the emulation path (the scenario campaign serial, parallel
# and traced; a cluster reset against a fresh construction; the streaming
# digest against the slice path at 10k and 1M executions), the event
# kernel's three cycles on a standing queue (schedule+fire, schedule+
# cancel, a 256-event equal-time pile), the SAN simulator (one completion
# beside 8 and 512 idle seizers, Reset+Run of a toy net, the consensus-net
# replica at c1_n5, c1_n7 and c3_n5, one n = 5 realization with NewSim),
# and the campaign path (a small SAN study serial, the quarter-size
# san-grid, tenth-size emu-grid and fifth-size fault-scenarios studies on
# two workers).
#
# Each pair runs every package on both sides back to back, in the order
# base, tree on odd pairs and tree, base on even ones, so slow drift of
# the machine falls on both sides alike. A row present on one side only
# (added or retired by the change) is printed and skipped.
#
# Usage: scripts/bench_ab.sh <base-ref>
set -eu
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
    echo "usage: scripts/bench_ab.sh <base-ref>" >&2
    exit 2
fi

ROWS='BenchmarkScenarioCampaign(Serial|Parallel|Traced)|BenchmarkCluster(Reset|NewPerReplica)|BenchmarkCampaignMemory|BenchmarkDES(Schedule|ScheduleCancel|EqualTimePile)$|BenchmarkSANCampaignSerial|BenchmarkSANGridTwoWorkers|BenchmarkEmuGridTwoWorkers|BenchmarkFaultScenariosTwoWorkers|BenchmarkSANEngine$|BenchmarkSimReset$|BenchmarkSettleFanout|BenchmarkConsensusReplica'
PKGS='internal/scenario internal/netsim internal/metrics internal/des internal/san internal/sanmodel campaign .'
PAIRS=10
BENCHTIME=300ms
LIMIT=1.25

WORK="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$WORK/base" >/dev/null 2>&1 || true
    rm -rf "$WORK"
}
trap cleanup EXIT
trap 'exit 130' INT TERM # so an interrupted run removes its worktree too
git worktree add --detach --quiet "$WORK/base" "$1"

# bin <side> <package>: the package's test binary on that side.
bin() {
    if [ "$2" = . ]; then echo "$WORK/$1/root.test"; else echo "$WORK/$1/$(echo "$2" | tr / _).test"; fi
}

# build <side> <source dir>: one test binary per package into $WORK/<side>.
build() {
    mkdir -p "$WORK/$1"
    for p in $PKGS; do
        if [ -d "$2/$p" ]; then
            (cd "$2/$p" && go test -c -o "$(bin "$1" "$p")" .)
        fi
    done
}
build base "$WORK/base"
build tree "$PWD"

# run <side> <source dir> <package> <pair>: append "row ns/op" lines. A
# benchmark that fails fails the script: a gate that skipped it would pass.
run() {
    b="$(bin "$1" "$3")"
    [ -x "$b" ] || return 0
    (cd "$2/$3" && "$b" -test.run='^$' -test.bench="$ROWS" -test.benchtime=$BENCHTIME -test.timeout=10m) >"$WORK/out"
    awk '/^Benchmark/ && $4 == "ns/op" { sub(/-[0-9]+$/, "", $1); print $1, $3 }' "$WORK/out" >>"$WORK/$1.$4"
}
i=1
while [ $i -le $PAIRS ]; do
    : >"$WORK/base.$i"
    : >"$WORK/tree.$i"
    for p in $PKGS; do
        if [ $((i % 2)) -eq 1 ]; then
            run base "$WORK/base" "$p" $i
            run tree "$PWD" "$p" $i
        else
            run tree "$PWD" "$p" $i
            run base "$WORK/base" "$p" $i
        fi
    done
    echo "pair $i of $PAIRS done" >&2
    i=$((i + 1))
done

# One line per row: the per-pair ratios, their median, and the verdict.
i=1
while [ $i -le $PAIRS ]; do
    awk -v pair=$i '{ print pair, "base", $1, $2 }' "$WORK/base.$i"
    awk -v pair=$i '{ print pair, "tree", $1, $2 }' "$WORK/tree.$i"
    i=$((i + 1))
done | awk -v limit=$LIMIT -v pairs=$PAIRS '
    { ns[$1, $2, $3] = $4; seen[$3] = seen[$3] " " $2 }
    END {
        bad = 0
        n = 0
        for (row in seen) names[++n] = row
        for (a = 2; a <= n; a++)        # insertion sort: stable, readable output
            for (b = a; b > 1 && names[b-1] > names[b]; b--) { t = names[b]; names[b] = names[b-1]; names[b-1] = t }
        for (k = 1; k <= n; k++) {
            row = names[k]
            m = 0
            line = ""
            for (p = 1; p <= pairs; p++) {
                if (!((p, "base", row) in ns) || !((p, "tree", row) in ns)) continue
                r[++m] = ns[p, "tree", row] / ns[p, "base", row]
                line = line sprintf(" %.2f", r[m])
            }
            if (m == 0) {
                side = index(seen[row], "base") ? "base" : "tree"
                printf "%-52s only on %s: skipped\n", row, side
                continue
            }
            for (a = 2; a <= m; a++)
                for (b = a; b > 1 && r[b-1] > r[b]; b--) { t = r[b]; r[b] = r[b-1]; r[b-1] = t }
            med = (m % 2) ? r[(m + 1) / 2] : (r[m / 2] + r[m / 2 + 1]) / 2
            verdict = "ok"
            if (med > limit) { verdict = "SLOWER"; bad++ }
            printf "%-52s ratios%s  median %.3f  %s\n", row, line, med, verdict
        }
        if (bad) {
            printf "%d row(s) slower than %.2fx the base on this host\n", bad, limit
            exit 1
        }
        printf "no row slower than %.2fx the base on this host\n", limit
    }'
