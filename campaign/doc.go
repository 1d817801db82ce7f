// Package campaign is the public evaluation surface of this repository:
// one API that runs the same study on every engine the paper's
// methodology spans — transient simulation of the Stochastic Activity
// Network model (SAN), measurement campaigns on the emulated cluster
// (Emulation), and declarative fault/workload scenarios (Scenario).
//
// A Study is a named grid of Points; each Point binds one engine with its
// configuration:
//
//	study := campaign.NewStudy("latency-vs-n",
//	    campaign.SANPoint{Name: "san-n5", N: 5, Replicas: 2000},
//	    campaign.LatencyPoint{Name: "meas-n5", N: 5, Executions: 1000},
//	    campaign.ScenarioPoint{Name: "gc-storm", Replicas: 4},
//	)
//	err := campaign.Run(ctx, study,
//	    campaign.WithSeed(1),
//	    campaign.WithWorkers(0), // one per CPU
//	    campaign.WithSink(campaign.NewJSONLWriter(os.Stdout)),
//	)
//
// Run fans the points (and the Monte-Carlo replicas inside them) across
// the deterministic worker pool. Three properties hold at every worker
// count:
//
//   - determinism: every result is bit-identical for a given seed — each
//     point draws from a child random stream keyed by its index, and the
//     per-point folds are serial (see PERFORMANCE.md);
//   - ordered streaming: sinks receive results in point-index order, as
//     soon as the contiguous prefix is complete — early points stream out
//     while later points still run. Points start in a fixed order of the
//     study's own (the chains no second worker can join heaviest first,
//     then the divisible points, see Run), so a study ends level; the
//     order decides when results arrive, never which or in what order;
//   - cancellation: the context is honored between points, between
//     replicas, and between consensus executions, so Ctrl-C (or a test
//     timeout) stops a campaign promptly with ctx.Err().
//
// Results are engine-uniform (Result with a latency Summary, abort
// counts, failure-detector QoS where measured); Sink implementations
// Collect and JSONLWriter cover programmatic and pipeline
// consumption. The ctsan commands that build a study from flags
// (testbed, sanrun, fdqos, scenario run) are thin shells over this
// package.
//
// Memory scales with the study, not with the execution count: every
// engine folds its samples into a streaming digest (internal/metrics),
// so a point running millions of executions retains kilobytes, and the
// Summary percentiles are exact for campaigns up to the digest's exact
// cap. The Samples method derives the ordered samples from the digest
// while it is exact and returns nil beyond the cap; Quantile queries the
// digest directly at any scale.
//
// Allocation follows the same discipline: no engine constructs per
// Monte-Carlo replica, and none constructs per point either. Each worker
// of the pool keeps, for exactly the duration of one Run, a bounded set
// of the engine assemblies it has built, keyed by shape (internal/keyed):
// replica harnesses — emulated cluster, protocol stacks, consensus
// engines, failure detectors — keyed by everything baked in at assembly,
// shared by Emulation and Scenario points of equal shape; and built SAN
// models with their simulators, keyed by everything the build reads. An
// assembly is built when its shape is first seen by a worker, rewound
// for every later point of that shape (netsim.Cluster.Reset plus
// per-layer reset hooks; san.Sim.Reset), and dropped when the set is at
// capacity (eight per kind, least recently used first) or when Run
// returns — so a 750-point grid over six shapes builds six assemblies
// per worker, a sweep over thousands of shapes holds eight, and a daemon
// retains nothing between studies. Inside an assembly, message-transit,
// timer and consensus-instance records are pooled on free lists,
// protocol payloads cross the stack as flat typed values rather than
// heap-boxed any, per-execution watchdogs are pooled, scenario timelines
// compile once per replica binding, and the DES kernel schedules through
// a calendar queue of linked, pooled event records with eager
// cancellation; PERFORMANCE.md's layer table gives the current cost of
// each layer. Rewinding is bit-identical to fresh construction (the
// "Reset ≡ fresh" and "Keyed sets" properties of PERFORMANCE.md's
// contract), which is why the determinism guarantee above survives the
// reuse: a point's result does not depend on what its worker ran before
// it.
//
// # Sharding and resume
//
// Studies also cross process boundaries. EncodeStudy/DecodeStudy give a
// Study a versioned JSON wire form ({"v":1,"name":...,"points":[...]},
// unknown fields, engines, and versions rejected), and Frozen
// materializes every default Run would resolve lazily — the per-index
// child seed, the display label, the replica count — so any process
// that freezes the same (spec, seed, replicas) inputs reconstructs the
// identical grid, and running a sub-range of it is bit-identical to the
// same points inside a full 1-process run.
//
// On top of that, RunRecords executes listed grid indices of a frozen
// study and hands its caller one shard record per completed point, in
// the order the points complete: a CRC-framed JSONL line carrying the
// point-spec hash, the public Result JSON verbatim, and the binary
// metrics.Digest encoding. Where a record goes is the caller's: `ctsan
// shard` appends it to a checkpoint file (fsynced once per 25 ms slice,
// skipping on resume the points the file already holds), and `ctsan
// worker` uploads it. MergeShardRecords folds the union of every
// shard's records back into the complete grid in index order — the
// same serial fold order as an in-process run — rejecting corrupt
// records (CRC), stale records (point-hash mismatch after a spec
// edit), and duplicates, and failing loudly if any point is missing.
// The merged output is byte-identical to an uninterrupted 1-process
// campaign; cmd/ctsan wraps this in a lease/execute/fold CLI
// (internal/shard's Ledger) with subprocess isolation, retry, and
// SIGKILL-resume differential tests.
//
// FrozenPoints exposes the same materialization as a value — one
// FrozenPoint per grid cell with its index, label, engine, derived
// seed, replica count, and PointHash — for callers that enumerate or
// address the grid without running it (the campaign service serves it
// verbatim). The hash covers everything execution depends on, so it
// can key a cache of records, and ResultLine re-identifies a stored
// record's result as the point of another study without decoding it.
// The HTTP campaign service (internal/server, cmd/ctsand) composes
// these pieces: DecodeStudy admits specs, FrozenPoints powers its grid
// surfaces, a byte-budgeted LRU over encoded shard records serves the
// points it holds through ResultLine, and RunRecords runs the rest.
//
// The same pieces compose once more into fleet dispatch: the service
// serves the same lease ledger `ctsan run` drives in-process to pulling
// `ctsan worker` processes, which execute their leases via RunRecords
// on one executor per process (SharedExecutor) and upload the records.
// The ledger accepts a record that CheckShardRecord accepts (layout and
// CRC, without a copy) and that carries the PointHash the coordinator's
// own freeze derived for its index, and folds in the same grid-index
// order as MergeShardRecords, so a fleet of any size (surviving any
// number of worker crashes via lease expiry) streams bytes identical to
// one in-process Run.
//
// # Observability
//
// Campaign execution is observable without touching determinism.
// WithProgress delivers a serialized, point-index-ordered callback
// after each result reaches the sinks (its ordering guarantees are part
// of the API — see the option's doc). Process-wide telemetry counters
// (points and executions completed, dispatch leases, checkpoint
// appends and bytes, worker utilization) tick in internal/obs and are
// served over expvar + pprof when a CLI runs with -debug-addr; they
// read wall clocks and so live deliberately outside the bit-identical
// contract — nothing in a Result depends on them. Per-event execution
// tracing of the emulated cluster lives one layer down (internal/trace,
// surfaced by `ctsan scenario trace`) and is equally result-neutral:
// attaching a tracer changes no Result bit.
package campaign
