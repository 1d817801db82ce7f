// Package ctsan reproduces "Performance Analysis of a Consensus Algorithm
// Combining Stochastic Activity Networks and Measurements" (Coccoli,
// Urbán, Bondavalli, Schiper — DSN 2002): the Chandra–Toueg ◇S consensus
// algorithm analyzed both by measurements on an emulated cluster and by
// transient simulation of a Stochastic Activity Network model.
//
// The public entry point is the campaign package (ctsan/campaign): a
// Study is a named grid of Points, each bound to one of the three
// engines the methodology spans — SAN (transient simulation of the §3
// model), Emulation (measurement campaigns on the emulated cluster of
// §4), and Scenario (declarative fault/workload timelines). One
// campaign.Run(ctx, study, opts...) call executes any mix of them with
// functional options (WithSeed, WithWorkers, WithReplicas, WithProgress),
// streaming per-point results to the WithProgress callback in
// deterministic point-index order (RunCollect gathers them), and
// honoring context cancellation down to execution and replica
// boundaries. See campaign's package example for the same latency study
// run on both the model and the emulator.
//
// Under the public surface, the evaluation campaigns — thousands of
// Monte-Carlo replicas of the SAN model and thousands of emulated
// consensus executions per figure — run on a deterministic worker pool
// (internal/parallel): replicas and campaign points fan out across the
// CPUs, yet every result is bit-identical at any worker count because
// each work unit draws from a per-index child random stream and results
// are folded and streamed in index order. Both engines reuse one
// simulator assembly per worker instead of constructing per replica:
// the SAN workers rewind a shared model's simulator (san.Sim.Reset),
// and the emulation/scenario workers rewind a whole cluster + protocol
// stack + consensus engine + failure detector assembly — one replica
// harness (experiment.Harness) that latency experiments and scenarios
// both configure — (netsim.Cluster.Reset and the layer reset hooks),
// with pooled
// message-transit and timer records making the steady-state delivery
// path allocation-free — reset-then-run is bit-identical to
// construct-then-run. The inner loop itself is allocation-free end to
// end: protocol payloads cross the stack as a flat typed union
// (neko.Payload) dispatched through a kind-indexed table rather than a
// heap-boxed any, watchdog and injection callbacks are pooled records,
// scenario timelines compile once per assembly and rewind in place, and
// the DES kernel schedules through an adaptive calendar queue whose
// nodes are the pooled event records themselves, linked and unlinked
// (eagerly, on cancellation too) without moving memory. PERFORMANCE.md's
// layer table gives what each layer costs today and the test that pins
// it. One command-line
// front end, cmd/ctsan, reaches all of it — `ctsan repro`, `sanrun`,
// `testbed`, `fdqos` for the paper's evaluation, `ctsan scenario …` for
// fault injection, `ctsan run|shard|merge|worker` for dispatch — with
// shared -workers/-seed flags and one exit-status rule
// (internal/cliflags).
//
// All three engines observe their samples through the streaming metrics
// core (internal/metrics): per-execution latencies fold into a
// constant-memory Digest — exact Welford moments plus quantiles that are
// exact (interpolated by the same rule as stats.ECDF) up to a
// configurable cap and deterministically sketched beyond it — instead of
// being retained as raw slices. campaign.Result.Samples is a method
// derived from the digest: it returns the ordered samples for campaigns
// under the exact cap and nil for the million-execution campaigns that
// deliberately do not retain them.
//
// Above the emulator sits the declarative scenario layer
// (internal/scenario): timelines of correlated adverse conditions —
// process crashes and recoveries, network partitions and heals, per-link
// loss and latency, whole-host pause storms, workload phases — built with
// a fluent API or loaded from JSON, compiled into DES events against the
// cluster (netsim.CrashAt/RecoverAt, the hub partition/link filter,
// PauseAt, PhaseAt), and fanned as scenario × replica campaigns through
// the worker pool. A registry of named built-ins (paper-baseline,
// crash-n3-anomaly, rolling-crash, split-brain, gc-storm, burst-load,
// flaky-link) is exposed by `ctsan scenario` (list, describe, run — whose
// -json report schema is pinned by a golden test); reports carry latency
// percentiles, ground-truthed wrong-suspicion rates, and decision
// throughput.
//
// Campaigns larger than one process shard across subprocesses — and
// machines. A study spec plus (seed, replicas) freezes deterministically
// into the identical grid everywhere (campaign.Frozen), every completed
// point is checkpointed as a CRC-framed record appended at once to an
// append-only log that is fsynced once per 25 ms slice of wall time
// (internal/checkpoint: a killed executor loses nothing it wrote, a
// power cut at most one slice of records, re-executed on resume), and
// one dispatch
// mechanism decides who runs what: the lease ledger (internal/shard).
// It hands out contiguous index ranges as leases, verifies every record
// that comes back against the frozen grid (CRC + PointHash), returns
// what a dead or partial executor left unfinished to the pending set,
// and folds results in grid-index order — so the output is
// byte-identical to an uninterrupted 1-process run however the grid was
// split and however often an executor died (determinism rule 5 in
// PERFORMANCE.md). The property is pinned by differential tests, a
// model-checked state-machine test of the ledger, and fuzzed wire
// formats (the versioned metrics.Digest binary encoding, study specs,
// shard records, and checkpoint framing).
//
// `ctsan run -shards N` (cmd/ctsan) drives the ledger in-process: its
// slots run each lease as an isolated `ctsan shard` subprocess, with
// per-attempt timeouts, bounded retries and exponential backoff, so a
// shard that crashes, panics, or is SIGKILLed loses at most the point
// in flight and only its holes are leased again.
//
// The same campaigns are served long-running by cmd/ctsand
// (internal/server): an HTTP service where concurrent users POST the
// identical study-spec JSON, browse the scenario registry, watch
// results stream live (chunked JSONL or SSE, in deterministic
// point-index order, byte-identical to an in-process run), and fetch
// final digests. The service is where the production concerns live —
// bounded admission (429 + Retry-After past the queue depth), per-study
// worker budgets carved from one shared pool, graceful drain through
// the campaign ctx plumbing — and where determinism pays off twice: a
// content-addressed result cache (campaign.PointHash of the frozen
// point → encoded shard record) serves repeated points from memory —
// and, with -cache-dir, from one append-only record file read through
// an index, so a point evicted from memory or computed before a restart
// is served too — bit-identical to resimulating them.
//
// The service is also the fleet coordinator: a study submitted with
// ?mode=fleet is not run on the local pool; the same ledger is served
// over HTTP to pulling `ctsan worker` processes on any machines that
// can reach it. Workers lease ranges (adaptively sized to ~1s of work),
// execute them through campaign.RunRecords, the executor the shard CLI
// uses, and upload the records; leases of dead workers expire
// and are granted again, so a SIGKILLed worker costs one lease of
// re-execution, never a wrong result.
//
// Every engine layer is traceable: an optional internal/trace tracer
// captures typed, sim-timed records — kernel scheduling, message
// send/deliver/drop with cause, timer lifecycle, fault and workload
// injections, heartbeat and suspicion transitions, consensus rounds —
// into a bounded per-replica ring at zero steady-state allocation, and
// a nil tracer costs one branch per emit site. The trace is itself
// deterministic output: bit-identical at any worker count for a fixed
// seed (determinism rule 6 in PERFORMANCE.md). `ctsan scenario trace`
// dumps it as JSONL or a Chrome trace_event file loadable in Perfetto, and
// -explain prints the causal event window behind each ground-truthed
// wrong suspicion. Campaign-level telemetry (internal/obs) — execution
// and point counters, lease grants and expiries, checkpoint appends and
// bytes, worker utilization — is exported via expvar and
// net/http/pprof when a command is given -debug-addr. What each layer
// costs on fixed workloads (events, firings, bytes, allocations) is the
// table testdata/costs.golden, held by TestCosts in costs_test.go;
// time is compared against the base commit on one host by
// scripts/bench_ab.sh.
//
// See ROADMAP.md for the layout, the north star and the open items,
// PERFORMANCE.md for the determinism contract and the measured
// performance of each layer, and benchmark/README.md for the end-to-end
// and per-layer benchmark. The benchmarks in bench_test.go regenerate
// every evaluation artifact of the paper.
package ctsan
