package experiment

import (
	"context"

	"ctsan/internal/parallel"
)

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
// Each worker keeps a keyed set of harnesses (Harnesses) for the sweep:
// sweeps of Monte-Carlo repetitions differ only in Seed and reuse one
// assembly end to end; heterogeneous sweeps (per-n figures) assemble each
// shape once per worker. Reused harnesses are bit-identical to fresh
// ones, so the determinism guarantee is unaffected (pinned by
// TestLatencySweepDeterministicAcrossWorkers).
func RunLatencySweepContext(ctx context.Context, specs []LatencySpec, workers int) ([]*LatencyResult, error) {
	sets := make([]Harnesses, parallel.Workers(workers))
	return parallel.Map(ctx, workers, len(specs), func(w, i int) (*LatencyResult, error) {
		return sets[w].RunLatency(ctx, specs[i])
	})
}
