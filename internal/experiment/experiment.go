// Package experiment drives measurement campaigns on the emulated cluster
// (internal/netsim), mirroring the methodology of §4–§5 of the paper:
//
//   - latency campaigns: sequential consensus executions whose beginnings
//     are separated by ≥10 ms so that executions do not interfere (§4),
//     each started "at the same time t_0" on every process subject to the
//     ±50 µs clock synchronization;
//   - the three classes of runs of §2.4: (1) no crashes and accurate
//     failure detectors, (2) one initial crash with a complete and
//     accurate failure detector, (3) no crashes but a real heartbeat
//     failure detector that makes mistakes;
//   - failure-detector QoS campaigns: the heartbeat detector's transitions
//     are recorded over the full experiment duration (multiple consensus
//     executions, §4) and reduced to the Chen et al. metrics;
//   - end-to-end delay measurements used to parameterize the SAN model
//     (§5.1, Fig. 6).
//
// The measurement loop itself exists once, as the replica Harness
// (harness.go): the cluster + stack + engine + detector assembly, the
// per-execution state machine with its watchdog, and the rewind that lets
// one assembly serve successive campaigns bit-identically to fresh ones.
// A latency campaign is the harness with an empty timeline, the static
// up-set and a fixed gap; the crash-transient experiment adds a crash in
// the plan's Prepare step; the throughput experiment chains executions on
// the same assembly; internal/scenario configures the same harness with
// a compiled fault timeline.
package experiment

import (
	"context"
	"fmt"
	"math"

	"ctsan/internal/fd"
	"ctsan/internal/metrics"
	"ctsan/internal/neko"
	"ctsan/internal/netsim"
	"ctsan/internal/stats"
)

// FDMode selects the failure-detector configuration of a campaign.
type FDMode int

const (
	// FDOracle is a perfect detector: class-1 runs suspect nobody;
	// class-2 runs suspect exactly the crashed processes.
	FDOracle FDMode = iota + 1
	// FDHeartbeat runs the real push heartbeat detector of §2.2.
	FDHeartbeat
)

// LatencySpec configures a latency campaign. Zero fields take the replica
// harness's defaults (Check).
type LatencySpec struct {
	N          int
	Params     netsim.Params // zero value: netsim defaults for N
	Executions int           // consensus executions (paper: 5000 class 1/2, 1000 class 3)
	Gap        float64       // separation between execution starts, ms (paper: 10)
	Warmup     float64       // time before the first execution, ms
	FDMode     FDMode        // zero value: FDOracle
	TimeoutT   float64       // heartbeat timeout T (FDHeartbeat)
	PeriodTh   float64       // heartbeat period T_h (FDHeartbeat); 0 means 0.7·T (§5.4)
	Crashed    []neko.ProcessID
	MaxRounds  int     // per-execution abort threshold; 0 = 256
	Deadline   float64 // per-execution wall deadline, ms; 0 = 500
	Seed       uint64
}

// LatencyResult aggregates one harness run: a latency campaign, or one
// scenario replica. Per-execution samples stream into the Digest as
// executions close, so a run's retained memory is bounded regardless of
// its execution count (exact up to metrics.DefaultExactCap samples,
// sketched beyond).
type LatencyResult struct {
	// Digest summarizes the first-decision latency of every completed
	// execution (ms): moments, extremes, and quantiles.
	Digest metrics.Digest
	// Rounds accumulates the deciding round of every completed execution.
	Rounds  stats.Accumulator
	Aborted int     // executions where no process decided (MaxRounds/deadline)
	Texp    float64 // total experiment duration (global ms), QoS denominator
	QoS     fd.QoS  // valid for heartbeat runs
	Events  uint64  // DES events executed (cost metric)
	// Timers is what the cluster's timers cost over the run.
	Timers netsim.TimerCounts
}

// MeanRounds returns the average deciding round.
func (r *LatencyResult) MeanRounds() float64 {
	if r.Rounds.N() == 0 {
		return math.NaN()
	}
	return r.Rounds.Mean()
}

// Check resolves the spec into the configuration of the replica harness
// it runs on — the assembly shape (netsim defaults for zero Params; under
// the oracle TimeoutT and PeriodTh are not read) and the run plan: an
// empty timeline, the static up-set, a fixed gap — and reports the first
// rule it breaks (the package-level Check). RunLatency makes the same
// check.
func (s LatencySpec) Check() (Shape, Plan, error) {
	params := s.Params
	if params.N == 0 {
		params = netsim.DefaultParams(s.N)
	}
	params.N = s.N
	params.Crashed = s.Crashed
	shape := Shape{Params: params, MaxRounds: s.MaxRounds}
	switch s.FDMode {
	case 0, FDOracle:
	case FDHeartbeat:
		if s.TimeoutT == 0 {
			return Shape{}, Plan{}, fmt.Errorf("experiment: heartbeat detector needs a timeout T")
		}
		shape.TimeoutT, shape.PeriodTh = s.TimeoutT, s.PeriodTh
	default:
		return Shape{}, Plan{}, fmt.Errorf("experiment: unknown FD mode %d", s.FDMode)
	}
	plan := Plan{
		Label:      "experiment",
		Seed:       s.Seed ^ 0x5eedc0de,
		Executions: s.Executions,
		Warmup:     s.Warmup,
		Gap:        s.Gap,
		Deadline:   s.Deadline,
	}
	if err := Check(&shape, &plan); err != nil {
		return Shape{}, Plan{}, err
	}
	return shape, plan, nil
}

// RunLatency executes a latency campaign on the set's harness of the
// spec's shape — assembled now if this is the first run of that shape,
// rewound otherwise; the results are bit-identical either way. ctx is
// checked between consensus executions, so a canceled campaign stops at
// the next execution boundary and returns ctx.Err().
func (hs *Harnesses) RunLatency(ctx context.Context, spec LatencySpec) (*LatencyResult, error) {
	shape, plan, err := spec.Check()
	if err != nil {
		return nil, err
	}
	h, err := hs.For(shape)
	if err != nil {
		return nil, err
	}
	plan.History = &fd.History{}
	res, err := h.Run(ctx, plan)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// RunLatencyContext is RunLatency on a set of its own: the harness is
// assembled, run once and dropped.
func RunLatencyContext(ctx context.Context, spec LatencySpec) (*LatencyResult, error) {
	var hs Harnesses
	return hs.RunLatency(ctx, spec)
}
