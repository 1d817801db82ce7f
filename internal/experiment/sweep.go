package experiment

import (
	"context"

	"ctsan/internal/parallel"
)

// innerWorkers splits the worker budget between an outer fan-out over
// `items` independent campaigns and the Monte-Carlo replicas inside each
// (see parallel.InnerWorkers).
func innerWorkers(workers, items int) int {
	return parallel.InnerWorkers(workers, items)
}

// RunLatencySweepContext runs independent latency campaigns — one per spec —
// across at most `workers` goroutines (0 = one per CPU, 1 = serial) and
// returns the results in spec order. Each campaign draws all its
// random streams from its spec's Seed, so the returned results are
// bit-identical to running the specs serially, regardless of the worker
// count. This is the unit of parallelism for the paper's measurement
// campaigns: the per-n sweeps of Fig. 7(a)/Table 1 and the (n, T) grid of
// Figs. 8–9. ctx cancels between campaigns and between the executions
// inside each campaign.
//
// Each worker keeps one harness (cluster, stacks, engines, detectors) and
// rewinds it for every spec that shares the cached harness's
// construction shape — sweeps of Monte-Carlo repetitions differ only in
// Seed and reuse one assembly end to end; heterogeneous sweeps (per-n
// figures) reassemble on shape changes. Reused harnesses are
// bit-identical to fresh ones, so the determinism guarantee is
// unaffected (pinned by TestLatencySweepDeterministicAcrossWorkers).
func RunLatencySweepContext(ctx context.Context, specs []LatencySpec, workers int) ([]*LatencyResult, error) {
	cache := make([]*Harness, parallel.Workers(workers))
	return parallel.Map(ctx, workers, len(specs), func(w, i int) (*LatencyResult, error) {
		shape, plan, err := specs[i].plan()
		if err != nil {
			return nil, err
		}
		if cache[w], err = cache[w].For(shape); err != nil {
			return nil, err
		}
		return runLatency(ctx, cache[w], plan)
	})
}
