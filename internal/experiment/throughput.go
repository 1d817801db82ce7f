package experiment

import (
	"context"
	"fmt"
	"math"

	"ctsan/internal/consensus"
	"ctsan/internal/neko"
	"ctsan/internal/rng"
	"ctsan/internal/stats"
)

// ThroughputSpec configures a throughput campaign — the paper's stated
// future work (§2.3/§6): "Throughput should be considered in a scenario
// where a sequence of consensus is executed, i.e., on each process,
// consensus #(k+1) starts immediately after consensus #k has decided.
// Note that, unlike in the definition of latency, not all processes
// necessarily start consensus at the same time."
type ThroughputSpec struct {
	N          int
	Executions int     // chained consensus instances
	Warmup     int     // leading instances excluded from the rate
	FDMode     FDMode  // zero value: FDOracle
	TimeoutT   float64 // FDHeartbeat
	Crashed    []neko.ProcessID
	Seed       uint64
}

// ThroughputResult reports the sustained decision rate.
type ThroughputResult struct {
	// Rate is decided instances per second of cluster time (counted over
	// the post-warmup window).
	Rate float64
	// InterDecision accumulates the gaps between consecutive first
	// decisions (ms).
	InterDecision stats.Accumulator
	Decided       int
	Aborted       int
	Duration      float64 // ms of cluster time in the measured window
	Events        uint64
}

// RunThroughputContext chains consensus executions back to back on each
// process: process p proposes instance k+1 the moment it finishes
// instance k. This pipelines rounds across instances (unlike the
// isolated executions of the latency campaigns) and saturates the
// coordinator and the medium.
//
// ctx cancels cooperatively at instance boundaries: once it is canceled
// no process chains a further instance, the cluster run stops, and the
// function returns ctx.Err().
func RunThroughputContext(ctx context.Context, spec ThroughputSpec) (*ThroughputResult, error) {
	if spec.N < 2 {
		return nil, fmt.Errorf("experiment: throughput needs n >= 2")
	}
	if spec.Executions < 1 {
		return nil, fmt.Errorf("experiment: throughput needs at least 1 execution")
	}
	if spec.Warmup >= spec.Executions {
		return nil, fmt.Errorf("experiment: warmup %d must be below executions %d", spec.Warmup, spec.Executions)
	}
	shape, err := LatencySpec{
		N: spec.N, Crashed: spec.Crashed, FDMode: spec.FDMode, TimeoutT: spec.TimeoutT,
	}.shape()
	if err != nil {
		return nil, err
	}
	h, err := NewHarness(shape)
	if err != nil {
		return nil, err
	}
	cluster, engines := h.cluster, h.engines
	cluster.Reset(rng.New(spec.Seed ^ 0x7a709).Child(1))
	cluster.Start()

	res := &ThroughputResult{}
	firstDecided := make(map[uint64]float64) // instance -> first decision (global ms)
	remaining := spec.N - len(spec.Crashed)
	finished := 0
	canceled := false
	var chain func(i int, k uint64)
	chain = func(i int, k uint64) {
		if k >= uint64(spec.Executions) {
			finished++
			return
		}
		if ctx.Err() != nil {
			// Cancellation lands at instance boundaries: this process stops
			// chaining; the run drains once every process has stopped.
			canceled = true
			finished++
			return
		}
		engines[i].Propose(k, int64(i)+int64(k)*100, func(d consensus.Decision) {
			if _, seen := firstDecided[k]; !seen {
				firstDecided[k] = cluster.Now()
				res.Decided++
			}
			engines[i].Forget(k)
			chain(i, k+1) // #(k+1) starts immediately after #k decides
		}, func() {
			res.Aborted++
			engines[i].Forget(k)
			chain(i, k+1)
		})
	}
	for i := 1; i <= spec.N; i++ {
		if h.crashed[i] {
			continue
		}
		cluster.StartAt(neko.ProcessID(i), 1.0, func() { chain(i, 0) })
	}
	cluster.Run(func() bool { return finished >= remaining })
	if canceled {
		return nil, ctx.Err()
	}
	res.Events = cluster.Steps()

	// Sustained rate over the post-warmup window.
	var prev float64
	started := false
	for k := uint64(spec.Warmup); k < uint64(spec.Executions); k++ {
		at, ok := firstDecided[k]
		if !ok {
			continue
		}
		if started {
			res.InterDecision.Add(at - prev)
		}
		prev = at
		started = true
		res.Duration = at
	}
	if n := res.InterDecision.N(); n > 0 {
		window := res.InterDecision.Mean() * float64(n)
		if window > 0 {
			res.Rate = 1000 * float64(n) / window
		}
	}
	if math.IsNaN(res.Rate) {
		res.Rate = 0
	}
	return res, nil
}
