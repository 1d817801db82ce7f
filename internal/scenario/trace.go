package scenario

import (
	"context"
	"fmt"
	"io"

	"ctsan/internal/experiment"
	"ctsan/internal/parallel"
	"ctsan/internal/trace"
)

// TraceSpec configures a traced campaign of one scenario: the replicas
// run exactly as a CampaignSpec campaign of that single scenario would —
// on the same replica loop, with the same per-replica seed derivation and
// grid order — so trace replica i is the execution behind replica i of
// `ctsan scenario run` at the same seed.
type TraceSpec struct {
	Scenario *Scenario
	// Replicas is the number of traced replicas (default 1).
	Replicas int
	// Executions overrides the scenario's per-replica execution count.
	Executions int
	// Workers caps the goroutines (<= 0: one per CPU, 1: serial). The
	// traces are bit-identical at any worker count (determinism rule 6).
	Workers int
	// Seed is the campaign root seed.
	Seed uint64
	// Cap bounds each replica's trace ring (0 = trace.DefaultCap). When a
	// replica emits more events than Cap the oldest are dropped and the
	// JSONL dump carries a truncation meta line.
	Cap int
}

// TracedReplica is one replica's traced outcome: Result.Trace holds the
// captured event window and Result.Wrong the ground-truthed wrong
// suspicions it can explain.
type TracedReplica struct {
	Replica int
	Seed    uint64
	Result  *Result
}

// RunTraced executes every replica of the spec with tracing enabled, on
// the campaign replica loop: each worker's replica records into one ring
// of its own, rewound per replica, so the traced campaign allocates per
// replica only the end-of-run snapshot.
func RunTraced(ctx context.Context, spec TraceSpec) ([]*TracedReplica, error) {
	grid := CampaignSpec{
		Scenarios: []*Scenario{spec.Scenario}, Replicas: spec.Replicas, Executions: spec.Executions, Seed: spec.Seed,
	}
	results, err := parallel.Do(ctx, spec.Workers, func(p *parallel.Pool, w int) ([]*Result, error) {
		return runUnits(ctx, p, w, make([]experiment.Harnesses, p.Workers()), &grid, func() *trace.Tracer { return trace.New(spec.Cap) })
	})
	if err != nil {
		return nil, err
	}
	seeds := unitSeeds(spec.Seed)
	reps := make([]*TracedReplica, len(results))
	for i, res := range results {
		reps[i] = &TracedReplica{Replica: i, Seed: seeds.Child(uint64(i)).Uint64(), Result: res}
	}
	return reps, nil
}

// explainRelevant reports whether e belongs in the causal window printed
// for a wrong suspicion by observer p of subject q: cluster-wide fault
// and workload injections, the suspicion lifecycle of the pair, q's
// heartbeat emissions, p's receptions from q, and message traffic
// between the pair. Kernel bookkeeping (schedule/fire) and unrelated
// pairs stay out.
func explainRelevant(e trace.Event, p, q int32) bool {
	switch e.Kind {
	case trace.KindCrash, trace.KindRecover, trace.KindPartition, trace.KindHeal,
		trace.KindLinkSet, trace.KindLinkClear, trace.KindPhase:
		return true
	case trace.KindPause:
		return e.P == p || e.P == q
	case trace.KindSuspect, trace.KindTrust:
		return e.P == p && e.Q == q
	case trace.KindHBEmit:
		return e.P == q
	case trace.KindHBRecv:
		return e.P == p && e.Q == q
	case trace.KindSend, trace.KindDeliver, trace.KindDrop:
		return (e.P == p && e.Q == q) || (e.P == q && e.Q == p)
	default:
		return false
	}
}

// WriteExplain prints the causal event window around every wrong
// suspicion of a traced replica: windowMS milliseconds of filtered trace
// before each suspicion (plus a quarter window after, so the clearing
// trust event usually shows). It returns the number of wrong suspicions
// explained.
func WriteExplain(w io.Writer, rep *TracedReplica, windowMS float64) (int, error) {
	res := rep.Result
	if len(res.Wrong) == 0 {
		return 0, nil
	}
	if windowMS <= 0 {
		windowMS = 50
	}
	tr := res.Trace
	for wi, ws := range res.Wrong {
		_, err := fmt.Fprintf(w, "replica %d (seed %d) wrong suspicion %d/%d: p%d suspected p%d at %.6f ms (p%d was up)\n",
			rep.Replica, rep.Seed, wi+1, len(res.Wrong), ws.P, ws.Q, ws.At, ws.Q)
		if err != nil {
			return wi, err
		}
		if tr.Dropped > 0 && (len(tr.Events) == 0 || tr.Events[0].T > ws.At-windowMS) {
			if _, err := fmt.Fprintf(w, "  (ring dropped %d earlier events; window may be truncated — raise -cap)\n", tr.Dropped); err != nil {
				return wi, err
			}
		}
		p, q := int32(ws.P), int32(ws.Q)
		printed := 0
		for _, e := range tr.Window(ws.At-windowMS, ws.At+float64(windowMS/4)) {
			if !explainRelevant(e, p, q) {
				continue
			}
			marker := "  "
			if e.Kind == trace.KindSuspect && e.P == p && e.Q == q && e.T == ws.At {
				marker = "> "
			}
			if _, err := fmt.Fprintf(w, "  %s%s\n", marker, e.String()); err != nil {
				return wi, err
			}
			printed++
		}
		if printed == 0 {
			if _, err := fmt.Fprintln(w, "    (no relevant events in window)"); err != nil {
				return wi, err
			}
		}
	}
	return len(res.Wrong), nil
}
