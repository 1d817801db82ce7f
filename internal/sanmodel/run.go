package sanmodel

import (
	"context"
	"math"

	"ctsan/internal/rng"
	"ctsan/internal/san"
)

// SimulateContext runs a replicated transient study of the model: each
// replica executes one consensus until the first decision (§2.3's latency)
// or the rounds guard trips. Replicas that abort or exceed tmax are
// discarded and counted in the result's Truncated field. workers 0 (or
// negative) means one per CPU, 1 forces the serial reference path, and ctx
// cancels the study between replicas. The model is built once and shared
// by every replica — it carries no run-time state — and each replica draws
// from the seed stream's Child(replica), so the returned samples are
// bit-identical for any worker count.
func SimulateContext(ctx context.Context, p Params, replicas int, tmax float64, seed uint64, workers int) (*san.TransientResult, error) {
	model, err := Build(p)
	if err != nil {
		return nil, err
	}
	return san.Transient(
		ctx,
		model.SAN,
		rng.New(seed^0x5a_0de1),
		san.TransientSpec{
			Replicas: replicas,
			Tmax:     tmax,
			Workers:  workers,
			Stop:     model.Done,
			Measure: func(mk *san.Marking, t float64) float64 {
				if mk.Get(model.Aborted) > 0 {
					return math.NaN()
				}
				return t
			},
		},
	)
}
