package sanmodel

import (
	"context"
	"math"

	"ctsan/internal/keyed"
	"ctsan/internal/rng"
	"ctsan/internal/san"
)

// Models is a worker's bounded set of built consensus models, each with
// the solver (one simulator per inner worker) that runs its studies,
// keyed by everything Build reads: the whole Params value. A study on
// parameters the set has seen builds nothing — the model is shared as is
// and its simulators are rewound — and is bit-identical to a study on a
// freshly built model. The zero value is an empty set; like the solvers
// it holds it serves one study at a time.
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

// Simulate runs a replicated transient study of the model for p: each
// replica executes one consensus until the first decision (§2.3's latency)
// or the rounds guard trips. Replicas that exceed tmax are counted in the
// result's Truncated field, replicas the guard aborted in its Discarded
// field; neither contributes a sample. workers 0 (or
// negative) means one per CPU, 1 forces the serial reference path, and ctx
// cancels the study between replicas. The model is shared by every
// replica — it carries no run-time state — and each replica draws from
// the seed stream's Child(replica), so the returned samples are
// bit-identical for any worker count and for any history of the set.
func (ms *Models) Simulate(ctx context.Context, p Params, replicas int, tmax float64, seed uint64, workers int) (*san.TransientResult, error) {
	s, err := ms.set.Get(p, buildSolved)
	if err != nil {
		return nil, err
	}
	return s.solver.Transient(ctx, rng.New(seed^0x5a_0de1), san.TransientSpec{
		Replicas: replicas,
		Tmax:     tmax,
		Workers:  workers,
		Stop:     s.stop,
		Measure:  s.measure,
	})
}

// SimulateContext is Simulate on a set of its own: the model is built,
// solved once and dropped.
func SimulateContext(ctx context.Context, p Params, replicas int, tmax float64, seed uint64, workers int) (*san.TransientResult, error) {
	var ms Models
	return ms.Simulate(ctx, p, replicas, tmax, seed, workers)
}
