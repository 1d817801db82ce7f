package experiment

import (
	"context"
	"fmt"
	"math"

	"ctsan/internal/fd"
	"ctsan/internal/neko"
)

// CrashTransientSpec configures the §6 extension the paper names as
// future work: "investigating more deeply the behavior of the algorithm
// under particular conditions (e.g., transient behavior after crashes)".
// A process crashes mid-campaign while the heartbeat failure detector is
// live; the campaign records per-execution latency relative to the crash
// instant, exposing the detection transient: executions between the crash
// and its detection pay nack-free round failures, executions after
// detection settle at the degraded steady state.
type CrashTransientSpec struct {
	N          int
	CrashID    neko.ProcessID // process that crashes (1 = first coordinator)
	CrashAfter int            // executions before the crash
	Executions int            // total executions
	TimeoutT   float64        // heartbeat FD timeout
	Seed       uint64
}

// CrashTransientResult is the per-execution latency trace around a crash.
type CrashTransientResult struct {
	// Latency[k] is execution k's first-decision latency (NaN if the
	// execution did not decide).
	Latency []float64
	// CrashAt is the global time of the crash; DetectionTime the mean
	// Chen T_D over the surviving observers.
	CrashAt       float64
	DetectionTime float64
	// SteadyBefore / PeakDuring / SteadyAfter summarize the three phases.
	SteadyBefore, PeakDuring, SteadyAfter float64
}

// RunCrashTransientContext executes the campaign. The crash is injected
// just before execution CrashAfter starts, so that execution runs
// against a crashed-but-not-yet-suspected coordinator — the worst case
// the FD timeout T is tuned against (§2.4 class-1 trade-off discussion).
// ctx cancels at consensus-execution boundaries, like every other
// campaign in this package.
func RunCrashTransientContext(ctx context.Context, spec CrashTransientSpec) (*CrashTransientResult, error) {
	if spec.CrashAfter >= spec.Executions {
		return nil, fmt.Errorf("experiment: crash point %d beyond campaign %d", spec.CrashAfter, spec.Executions)
	}
	if spec.CrashID < 1 || int(spec.CrashID) > spec.N {
		return nil, fmt.Errorf("experiment: crash id %d out of range", spec.CrashID)
	}
	// The latency harness with a live heartbeat FD and a mid-run crash
	// injected through the plan's Prepare step (running two campaigns would
	// not be equivalent: FD state would reset between them).
	res := &CrashTransientResult{}
	shape, plan, err := LatencySpec{
		N:          spec.N,
		Executions: spec.Executions,
		FDMode:     FDHeartbeat,
		TimeoutT:   spec.TimeoutT,
		Seed:       spec.Seed,
		// Post-crash executions can only be closed by the watchdog (the
		// crashed process never reports); keep the deadline short enough
		// that the campaign proceeds but long enough to capture the
		// detection-transient latencies (up to ~T + T_h).
		Deadline: float64(3*spec.TimeoutT) + 60,
	}.Check()
	if err != nil {
		return nil, err
	}
	h, err := NewHarness(shape)
	if err != nil {
		return nil, err
	}
	plan.History = &fd.History{Keep: true} // DetectionTimes reads every transition
	crashLocal := plan.Warmup + float64(float64(spec.CrashAfter)*plan.Gap) - 0.5
	res.CrashAt = crashLocal
	plan.Prepare = func() error {
		h.cluster.CrashAt(spec.CrashID, crashLocal)
		return nil
	}
	// The per-execution trace is collected through the plan's trace hook
	// as executions close (undecided executions keep their NaN), so the
	// campaign itself retains no raw sample slice.
	res.Latency = make([]float64, spec.Executions)
	for i := range res.Latency {
		res.Latency[i] = math.NaN()
	}
	plan.Trace = func(k int, lat float64) { res.Latency[k] = lat }
	if _, err := h.Run(ctx, plan); err != nil {
		return nil, err
	}
	tds := fd.DetectionTimes(plan.History, spec.CrashID, crashLocal, spec.N)
	sum, cnt := 0.0, 0
	for _, td := range tds {
		if math.IsInf(td, 1) {
			continue // entries 0 and CrashID, and observers that never suspect
		}
		sum += td
		cnt++
	}
	if cnt > 0 {
		res.DetectionTime = sum / float64(cnt)
	}
	res.SteadyBefore = meanWindow(res.Latency, 0, spec.CrashAfter)
	res.PeakDuring = maxWindow(res.Latency, spec.CrashAfter, min(spec.CrashAfter+3, spec.Executions))
	res.SteadyAfter = meanWindow(res.Latency, min(spec.CrashAfter+3, spec.Executions), spec.Executions)
	return res, nil
}

func meanWindow(xs []float64, lo, hi int) float64 {
	s, n := 0.0, 0
	for _, v := range xs[lo:hi] {
		if !math.IsNaN(v) {
			s += v
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return s / float64(n)
}

func maxWindow(xs []float64, lo, hi int) float64 {
	best := math.NaN()
	for _, v := range xs[lo:hi] {
		if !math.IsNaN(v) && (math.IsNaN(best) || v > best) {
			best = v
		}
	}
	return best
}
