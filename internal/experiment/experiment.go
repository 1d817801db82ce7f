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

// LatencySpec configures a latency campaign.
type LatencySpec struct {
	N          int
	Params     netsim.Params // zero value: netsim defaults for N
	Executions int           // consensus executions (paper: 5000 class 1/2, 1000 class 3)
	Gap        float64       // separation between execution starts, ms (paper: 10)
	Warmup     float64       // time before the first execution, ms
	FDMode     FDMode        // zero value: FDOracle
	TimeoutT   float64       // heartbeat timeout T (FDHeartbeat)
	PeriodTh   float64       // heartbeat period T_h; 0 means 0.7·T (§5.4)
	Crashed    []neko.ProcessID
	MaxRounds  int     // per-execution abort threshold; 0 = 256
	Deadline   float64 // per-execution wall deadline, ms; 0 = 500
	Seed       uint64
}

// LatencyResult aggregates a latency campaign. Per-execution samples
// stream into the Digest as executions close, so a campaign's retained
// memory is bounded regardless of its execution count (exact up to
// metrics.DefaultExactCap samples, sketched beyond).
type LatencyResult struct {
	// Digest summarizes the first-decision latency of every completed
	// execution (ms): moments, extremes, and quantiles.
	Digest metrics.Digest
	// Rounds accumulates the deciding round of every completed execution.
	Rounds  stats.Accumulator
	Aborted int     // executions where no process decided (MaxRounds/deadline)
	Texp    float64 // total experiment duration (global ms), QoS denominator
	QoS     fd.QoS  // valid for FDHeartbeat campaigns
	Events  uint64  // DES events executed (cost metric)
}

// MeanRounds returns the average deciding round.
func (r *LatencyResult) MeanRounds() float64 {
	if r.Rounds.N() == 0 {
		return math.NaN()
	}
	return r.Rounds.Mean()
}

// validate applies the run-time defaults and sanity-checks the spec.
func (s *LatencySpec) validate() error {
	if s.N < 2 {
		return fmt.Errorf("experiment: need n >= 2, got %d", s.N)
	}
	if s.Executions < 1 {
		return fmt.Errorf("experiment: need at least 1 execution")
	}
	if len(s.Crashed) >= (s.N+1)/2 {
		return fmt.Errorf("experiment: %d crashes violate the majority-correct requirement for n=%d", len(s.Crashed), s.N)
	}
	if s.Gap == 0 {
		s.Gap = 10
	}
	if s.Warmup == 0 {
		s.Warmup = 20
	}
	if s.Deadline == 0 {
		s.Deadline = 500
	}
	return nil
}

// shape resolves the spec's assembly-time fields (N, Params, Crashed, the
// FD configuration, MaxRounds) into a harness shape: netsim defaults for
// zero Params, the oracle for a zero FDMode.
func (s LatencySpec) shape() (Shape, error) {
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
		if s.TimeoutT <= 0 {
			return Shape{}, fmt.Errorf("experiment: heartbeat detector needs TimeoutT > 0")
		}
		shape.TimeoutT, shape.PeriodTh = s.TimeoutT, s.PeriodTh
	default:
		return Shape{}, fmt.Errorf("experiment: unknown FD mode %d", s.FDMode)
	}
	return shape, nil
}

// plan validates the spec and resolves it into a configuration of the
// replica harness: the assembly shape it needs and the run plan — an empty
// timeline, the static up-set, a fixed gap.
func (s LatencySpec) plan() (Shape, Plan, error) {
	if err := s.validate(); err != nil {
		return Shape{}, Plan{}, err
	}
	shape, err := s.shape()
	if err != nil {
		return Shape{}, Plan{}, err
	}
	return shape, Plan{
		Label:      "experiment",
		Seed:       s.Seed ^ 0x5eedc0de,
		Executions: s.Executions,
		Warmup:     s.Warmup,
		Gap:        s.Gap,
		Deadline:   s.Deadline,
		History:    &fd.History{},
	}, nil
}

// RunLatency executes a latency campaign on the set's harness of the
// spec's shape — assembled now if this is the first run of that shape,
// rewound otherwise; the results are bit-identical either way. ctx is
// checked between consensus executions, so a canceled campaign stops at
// the next execution boundary and returns ctx.Err().
func (hs *Harnesses) RunLatency(ctx context.Context, spec LatencySpec) (*LatencyResult, error) {
	shape, plan, err := spec.plan()
	if err != nil {
		return nil, err
	}
	h, err := hs.For(shape)
	if err != nil {
		return nil, err
	}
	out, err := h.Run(ctx, plan)
	if err != nil {
		return nil, err
	}
	return &LatencyResult{
		Digest:  out.Digest,
		Rounds:  out.Rounds,
		Aborted: out.Aborted,
		Texp:    out.Texp,
		QoS:     out.QoS,
		Events:  out.Events,
	}, nil
}

// RunLatencyContext is RunLatency on a set of its own: the harness is
// assembled, run once and dropped.
func RunLatencyContext(ctx context.Context, spec LatencySpec) (*LatencyResult, error) {
	var hs Harnesses
	return hs.RunLatency(ctx, spec)
}
