package san

import (
	"context"
	"fmt"

	"ctsan/internal/metrics"
	"ctsan/internal/parallel"
	"ctsan/internal/rng"
)

// TransientSpec describes a replicated transient study: run Replicas
// independent realizations of the model, each until Stop becomes true or
// Tmax is reached, and record the stop time of each replica. This is the
// "terminating simulation" solver the paper uses (§5: latency until the
// first process decides).
type TransientSpec struct {
	Replicas int
	Tmax     float64
	// Workers sizes the pool Transient runs the study on when it is not
	// part of a larger run: 0 (or negative) means one worker per CPU, 1
	// forces the serial reference path. TransientOn runs on its caller's
	// pool and does not consult it. Results are bit-identical for every
	// worker count: replica i always draws from the parent stream's
	// Child(i), and per-replica outcomes are folded in replica order.
	Workers int
	// Stop is the absorbing condition, e.g. "a decide place is marked".
	Stop func(mk *Marking) bool
	// Measure, if non-nil, overrides the recorded value for a replica
	// (default: the virtual stop time). It receives the final marking and
	// stop time; return NaN to discard the replica, which counts it in the
	// result's Discarded.
	Measure func(mk *Marking, t float64) float64
}

// TransientResult aggregates the per-replica measures. Kept replicas
// fold into the Digest in replica order, so retained memory is bounded
// by the digest's exact cap regardless of the replica count. Every
// replica is accounted for: Digest.N() + Truncated + Discarded equals
// the Replicas asked for.
type TransientResult struct {
	Digest    metrics.Digest
	Truncated int // replicas that hit Tmax without satisfying Stop
	Discarded int // replicas that stopped and Measure rejected (NaN)
}

// replicaOutcome is one replica's contribution before the ordered fold:
// neither kept nor truncated means discarded by Measure.
type replicaOutcome struct {
	v         float64
	kept      bool
	truncated bool
}

// replicaChunk is how many replicas the pool accounts for at once (see
// parallel.ForEachChunk): a replica of the consensus net is 5-15 µs, so a
// chunk is about half a millisecond of work for one bracket.
const replicaChunk = 64

// Solver runs replicated transient studies of one model and keeps what
// they can share: one simulator and one random stream per pool worker,
// built by that worker on its first replica and rewound (Sim.Reset) for
// every later one — of this study and of the next on the same Solver. A
// rewound simulator is bit-identical to a fresh one (reset_test.go), so
// how many studies a Solver has served never shows in a result. The model
// carries no run-time state and the simulator never mutates it, so every
// worker shares it. A Solver belongs to the pool worker that opens its
// studies, one study at a time; the workers that join a study touch only
// the slot of their own index.
type Solver struct {
	m       *Model
	workers []*solverWorker // indexed by pool worker
}

// solverWorker is one worker's retained simulator; the stream is
// re-derived in place per replica (ChildInto leaves it bit-identical to
// Child(i)).
type solverWorker struct {
	sim  *Sim
	rand rng.Stream
}

// NewSolver returns a solver for m holding no simulators yet.
func NewSolver(m *Model) *Solver { return &Solver{m: m} }

// Transient is TransientOn on a pool of its own, spec.Workers wide.
func (s *Solver) Transient(ctx context.Context, r *rng.Stream, spec TransientSpec) (*TransientResult, error) {
	return parallel.Do(ctx, spec.Workers, func(p *parallel.Pool, w int) (*TransientResult, error) {
		return s.TransientOn(ctx, p, w, r, spec)
	})
}

// TransientOn runs the replicated transient study described by spec as a
// loop nested in the unit its caller is running as worker `worker` of p:
// replicas go out in contiguous chunks of at most replicaChunk — fewer
// when the study is short for the pool, so it still spreads over every
// worker — to the caller and to every pool worker with no unit of its own
// left. Each replica draws from a child stream of r keyed by its index
// and lands in its own outcome slot, so results are independent of
// chunking, of who helped and of scheduling, and reproducible at any pool
// width.
//
// On a pool wider than one, Stop and Measure are called concurrently;
// they only read the Marking they are passed.
//
// The steady-state replica loop does not allocate at all: beyond the
// per-replica outcome slice, allocations do not depend on Replicas, and
// a study on a Solver that has run before builds nothing (a worker that
// joins for the first time builds its one simulator).
//
// ctx cancels the study between replicas, inside a chunk too (a replica
// that has started runs to completion); a canceled study returns
// ctx.Err(). A panic in Stop, Measure or a gate surfaces as a
// *parallel.UnitPanic whose Index is the replica.
func (s *Solver) TransientOn(ctx context.Context, p *parallel.Pool, worker int, r *rng.Stream, spec TransientSpec) (*TransientResult, error) {
	if spec.Replicas <= 0 {
		return nil, fmt.Errorf("san: transient study needs at least 1 replica, got %d", spec.Replicas)
	}
	if spec.Stop == nil {
		return nil, fmt.Errorf("san: transient study needs a stop condition")
	}
	if spec.Tmax <= 0 {
		return nil, fmt.Errorf("san: transient study needs a positive Tmax")
	}
	outs := make([]replicaOutcome, spec.Replicas)
	if n := p.Workers(); len(s.workers) < n {
		s.workers = append(s.workers, make([]*solverWorker, n-len(s.workers))...)
	}
	err := p.ForEachChunk(ctx, worker, spec.Replicas, replicaChunk, func(w, i int) error {
		wk := s.workers[w]
		if wk == nil {
			wk = &solverWorker{}
			s.workers[w] = wk
		}
		r.ChildInto(&wk.rand, uint64(i))
		if wk.sim == nil {
			wk.sim = NewSim(s.m, &wk.rand)
		} else {
			wk.sim.Reset(&wk.rand)
		}
		sim := wk.sim
		t, stopped := sim.Run(spec.Tmax, spec.Stop)
		out := &outs[i]
		if !stopped {
			out.truncated = true
			return nil
		}
		v := t
		if spec.Measure != nil {
			v = spec.Measure(sim.Marking(), t)
			if v != v { // NaN: discarded
				return nil
			}
		}
		out.v = v
		out.kept = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Fold in replica order: the digest's moments and quantiles are then
	// bit-identical to a serial run regardless of scheduling.
	res := &TransientResult{}
	for i := range outs {
		switch {
		case outs[i].truncated:
			res.Truncated++
		case outs[i].kept:
			res.Digest.Add(outs[i].v)
		default:
			res.Discarded++
		}
	}
	return res, nil
}
