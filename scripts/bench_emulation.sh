#!/usr/bin/env sh
# Runs the emulation-path benchmark suite — the scenario campaign
# benchmarks, the cluster reset-vs-construct pair, the campaign
# memory benchmark — and the SAN simulator's rows: the campaign baseline
# (mostly model construction at 40 replicas), the quarter-size san-grid
# study on two workers with its speed-up over one (BenchmarkSANGridTwoWorkers:
# the row that sees a study ending on one point running alone) and the
# tenth-size emu-grid study the same way (BenchmarkEmuGridTwoWorkers: six
# indivisible chains, the row that sees the start order), one n = 5
# realization including NewSim (BenchmarkSANEngine: construction,
# compiling the net included),
# the Reset+Run replica body on a toy model (BenchmarkSimReset) and on the
# consensus net, the path a SAN study spends its time in
# (BenchmarkConsensusReplica/{c1_n5,c1_n7,c3_n5}, with ns/firing), and one
# completion with 8 and 512 idle seizers on the flipping resource
# (BenchmarkSettleFanout, the pair must read alike) — and the event
# kernel's three cycles on a standing queue (BenchmarkDESSchedule,
# BenchmarkDESScheduleCancel, and BenchmarkDESEqualTimePile: 256
# simultaneous events, the row that goes O(pile) if a bucket loses its
# tail pointer) — and writes the results to BENCH_emulation.json via
# cmd/benchjson, so the perf trajectory of the allocation-lean emulator
# is tracked per commit (CI uploads the file as a build artifact).
#
# BENCHTIME tunes the per-benchmark budget (default 5x iterations; CI
# uses a smaller smoke value). The human-readable output still streams to
# stderr, so the script is usable interactively.
#
# PROFILE_DIR, when set, additionally captures CPU and heap profiles of
# the scenario-campaign benchmark (the hot emulation path) into that
# directory as scenario.cpu.pprof / scenario.mem.pprof, and a CPU profile
# of the consensus-net replica loop (the hot SAN path) as san.cpu.pprof;
# CI uploads them as artifacts so a perf regression ships with the
# profile that explains it. Profiling is a separate single-package run
# each because -cpuprofile applies per test binary.
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-5x}"
OUT="${OUT:-BENCH_emulation.json}"
PROFILE_DIR="${PROFILE_DIR:-}"

# Two stages, not a pipeline: POSIX sh has no pipefail, and a pipeline
# would report benchjson's status even when go test itself fails — CI
# must go red when a benchmark stops building or panics.
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

go test -run=- \
    -bench 'BenchmarkScenarioCampaign(Serial|Parallel|Traced)|BenchmarkCluster(Reset|NewPerReplica)|BenchmarkCampaignMemory|BenchmarkDES(Schedule|ScheduleCancel|EqualTimePile)$|BenchmarkSANCampaignSerial|BenchmarkSANGridTwoWorkers|BenchmarkEmuGridTwoWorkers|BenchmarkSANEngine$|BenchmarkSimReset$|BenchmarkSettleFanout|BenchmarkConsensusReplica' \
    -benchmem -benchtime "$BENCHTIME" \
    ./internal/scenario/ ./internal/netsim/ ./internal/metrics/ ./internal/des/ ./internal/san/ ./internal/sanmodel/ ./campaign/ . \
    >"$TMP"
cat "$TMP" >&2

go run ./cmd/benchjson -o "$OUT" <"$TMP"
echo "wrote $OUT" >&2

if [ -n "$PROFILE_DIR" ]; then
    mkdir -p "$PROFILE_DIR"
    go test -run=- -bench 'BenchmarkScenarioCampaignSerial' \
        -benchtime "$BENCHTIME" \
        -cpuprofile "$PROFILE_DIR/scenario.cpu.pprof" \
        -memprofile "$PROFILE_DIR/scenario.mem.pprof" \
        -o "$PROFILE_DIR/scenario.test" \
        ./internal/scenario/ >&2
    echo "wrote $PROFILE_DIR/scenario.cpu.pprof and scenario.mem.pprof" >&2
    go test -run=- -bench 'BenchmarkConsensusReplica' \
        -benchtime "$BENCHTIME" \
        -cpuprofile "$PROFILE_DIR/san.cpu.pprof" \
        -o "$PROFILE_DIR/sanmodel.test" \
        ./internal/sanmodel/ >&2
    echo "wrote $PROFILE_DIR/san.cpu.pprof" >&2
fi
