package sanmodel

import (
	"context"
	"math"

	"ctsan/internal/keyed"
	"ctsan/internal/parallel"
	"ctsan/internal/rng"
	"ctsan/internal/san"
)

// Models is a pool worker's bounded set of built consensus models, each
// with the solver (one simulator per pool worker that has run its
// replicas) that runs its studies, keyed by everything Build reads: the
// whole Params value. A study on parameters the set has seen builds
// nothing — the model is shared as is and its simulators are rewound —
// and is bit-identical to a study on a freshly built model. The zero
// value is an empty set; like the solvers it holds it belongs to the one
// worker that opens studies on it, one at a time.
type Models struct {
	set keyed.Set[Params, *solved]
}

// solved is one retained assembly: a built model behind its solver.
type solved struct {
	solver *san.Solver
	// stop and measure are the latency reward variable over the model
	// (§2.3), bound once so a study on a retained model allocates no
	// closures.
	stop    func(mk *san.Marking) bool
	measure func(mk *san.Marking, t float64) float64
}

func buildSolved(p Params) (*solved, error) {
	model, err := Build(p)
	if err != nil {
		return nil, err
	}
	return &solved{
		solver: san.NewSolver(model.SAN),
		stop:   model.Done,
		measure: func(mk *san.Marking, t float64) float64 {
			if mk.Get(model.Aborted) > 0 {
				return math.NaN()
			}
			return t
		},
	}, nil
}

// Len reports how many built models the set retains.
func (ms *Models) Len() int { return ms.set.Len() }

// Simulate runs a replicated transient study of the model for p, nested
// in the unit its caller is running as worker `worker` of pool (see
// san.Solver.TransientOn): each replica executes one consensus until the
// first decision (§2.3's latency) or the rounds guard trips. Replicas that
// exceed tmax are counted in the result's Truncated field, replicas the
// guard aborted in its Discarded field; neither contributes a sample. ctx
// cancels the study between replicas. The model is shared by every
// replica — it carries no run-time state — and each replica draws from
// the seed stream's Child(replica), so the returned samples are
// bit-identical for any pool width and for any history of the set.
func (ms *Models) Simulate(ctx context.Context, pool *parallel.Pool, worker int, p Params, replicas int, tmax float64, seed uint64) (*san.TransientResult, error) {
	s, err := ms.set.Get(p, buildSolved)
	if err != nil {
		return nil, err
	}
	return s.solver.TransientOn(ctx, pool, worker, rng.New(seed^0x5a_0de1), san.TransientSpec{
		Replicas: replicas,
		Tmax:     tmax,
		Stop:     s.stop,
		Measure:  s.measure,
	})
}

// SimulateContext is Simulate on a set and a pool of its own: workers 0
// (or negative) means one per CPU, 1 forces the serial reference path. The
// model is built, solved once and dropped.
func SimulateContext(ctx context.Context, p Params, replicas int, tmax float64, seed uint64, workers int) (*san.TransientResult, error) {
	return parallel.Do(ctx, workers, func(pool *parallel.Pool, w int) (*san.TransientResult, error) {
		var ms Models
		return ms.Simulate(ctx, pool, w, p, replicas, tmax, seed)
	})
}
