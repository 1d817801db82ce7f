package campaign

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"

	"ctsan/internal/obs"
	"ctsan/internal/parallel"
	"ctsan/internal/rng"
)

// pointSeed resolves the effective seed of point `index`: an explicit
// per-point seed wins; otherwise a child stream of the study seed, keyed
// by the index, supplies one — so points are statistically independent
// yet the whole study is reproducible from a single root seed.
func (o *options) pointSeed(index int, explicit uint64) uint64 {
	if explicit != 0 {
		return explicit
	}
	return rng.New(o.seed ^ 0xca_4a16).Child(uint64(index)).Uint64()
}

// pointReplicas resolves a point's replica count: its own, else the
// study default (WithReplicas), else the engine's.
func (o *options) pointReplicas(explicit, engineDefault int) int {
	switch {
	case explicit != 0:
		return explicit
	case o.replicas != 0:
		return o.replicas
	}
	return engineDefault
}

// Run executes every point of the study on one deterministic worker pool
// and streams results to the attached sinks in point-index order: result i
// is delivered as soon as results 0..i are complete, while later points
// may still run, and the emission order (and every result bit) is
// independent of the worker count. Points start in the study's start
// order (startOrder): the chains — points no second worker can join, an
// Emulation point or a one-replica Scenario point, each one sequential
// chain of executions — heaviest first, then the divisible points in
// index order, whose replicas a worker with no point left to start joins.
// So a study ends level instead of on a long chain that started last; the
// price is prompt delivery — point 0 may start late, and with it every
// result. A failing run reports the error of the point at the lowest
// failing start position.
//
// ctx cancels the study cooperatively: between points, between the
// Monte-Carlo replicas inside SAN and Scenario points, and between the
// consensus executions inside Emulation points. A canceled run returns
// ctx.Err() (after closing the sinks, so partial output is flushed).
func Run(ctx context.Context, study *Study, opts ...Option) error {
	o := &options{seed: 1}
	for _, opt := range opts {
		opt(o)
	}
	err := run(ctx, study, o)
	// Sinks are closed on every exit path — success, validation error,
	// point failure, cancellation — so partial output is always flushed.
	for _, s := range o.sinks {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("campaign: sink close: %w", cerr)
		}
	}
	// Cancellation surfaces as the clean context error, not a wrapped
	// point failure.
	if err != nil && ctx.Err() != nil && errors.Is(err, ctx.Err()) {
		return ctx.Err()
	}
	return err
}

// run freezes and executes the study (sink closing is Run's job).
func run(ctx context.Context, study *Study, o *options) error {
	if study == nil || len(study.Points) == 0 {
		return errors.New("campaign: study with no points (nothing to run)")
	}
	// Freeze — and so validate — every point before anything runs: a typo
	// in point 7 must not cost the six campaigns before it. A study
	// Frozen made is its own freeze: every default is materialized
	// already, under any options.
	var prep []prepared
	if g := study.grid(); g != nil {
		prep = g.prep
	} else {
		var err error
		if study, prep, err = frozenWith(study, o); err != nil {
			return err
		}
	}
	chains := make([]float64, len(prep))
	for i := range prep {
		chains[i] = prep[i].chain
	}

	e := o.exec
	switch {
	case e == nil:
		// One pool and one set of retained engine assemblies per pool
		// worker, alive for exactly this run.
		e = newExecutor(o.workers)
		o.exec = e
	case o.workers != 0 && parallel.Workers(o.workers) != e.pool.Workers():
		return fmt.Errorf("campaign: %d workers asked of a shared executor of %d", parallel.Workers(o.workers), e.pool.Workers())
	}
	if !e.busy.CompareAndSwap(false, true) {
		return errors.New("campaign: the shared executor is running another study")
	}
	defer e.busy.Store(false)

	total := len(prep)
	err := parallel.StreamOn(ctx, e.pool, startOrder(chains),
		func(w, i int) (*Result, error) {
			point := study.Points[i].Label()
			res, err := prep[i].run(ctx, e, w)
			if err != nil {
				return nil, fmt.Errorf("campaign: point %d (%s): %w", i, point, err)
			}
			res.Study, res.Point, res.Index = study.Name, point, i
			if o.completed != nil {
				if err := o.completed(i, res); err != nil {
					return nil, fmt.Errorf("campaign: point %d (%s): %w", i, point, err)
				}
			}
			return res, nil
		},
		func(i int, res *Result) error {
			obs.Points.Add(1)
			for _, s := range o.sinks {
				if err := s.Emit(res); err != nil {
					return fmt.Errorf("campaign: sink: %w", err)
				}
			}
			if o.progress != nil {
				o.progress(i+1, total, res)
			}
			return nil
		})
	if err != nil {
		// A failed point may have left an assembly mid-run: the next Run
		// on a shared executor starts from nothing.
		e.empty()
	}
	return err
}

// startOrder is the order a study's points start in, given each point's
// chain estimate (0 for a divisible point): the chains in descending
// order of their estimates — longest processing time first (Graham,
// "Bounds on multiprocessing timing anomalies", SIAM J. Appl. Math.
// 17(2), 1969) — then the divisible points, so the workers that run out
// of chains fill the study's tail by joining their replica loops. Ties
// and the divisible points keep index order. The order is a function of
// the frozen study alone — the same at every worker count — so a run's
// results, their emission order and its error do not depend on the
// width.
func startOrder(chains []float64) []int {
	order := make([]int, len(chains))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(chains[b], chains[a]) })
	return order
}

// RunCollect is Run with an implicit Collect sink: it returns every
// result in point-index order. Use it when the study is small enough that
// fold-at-end is fine; attach sinks to Run for streaming consumption.
func RunCollect(ctx context.Context, study *Study, opts ...Option) ([]*Result, error) {
	var c Collect
	if err := Run(ctx, study, append(opts, WithSink(&c))...); err != nil {
		return nil, err
	}
	return c.Results, nil
}
