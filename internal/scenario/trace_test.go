package scenario

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"ctsan/internal/trace"
)

// traceBytes renders a traced campaign's full JSONL dump (all replicas,
// in replica order) for byte-level comparison.
func traceBytes(t *testing.T, spec TraceSpec) []byte {
	t.Helper()
	reps, err := RunTraced(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, r := range reps {
		if err := r.Result.Trace.WriteJSONL(&b, r.Replica); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestTracedRunWorkersInvariant is determinism rule 6 at the package
// level: the full JSONL trace of a multi-replica campaign must be
// byte-identical at any worker count.
func TestTracedRunWorkersInvariant(t *testing.T) {
	s, err := Get("flaky-link")
	if err != nil {
		t.Fatal(err)
	}
	spec := TraceSpec{Scenario: s, Replicas: 4, Executions: 10, Seed: 7, Workers: 1}
	want := traceBytes(t, spec)
	if len(want) == 0 {
		t.Fatal("empty trace")
	}
	for _, workers := range []int{2, 8} {
		spec.Workers = workers
		if got := traceBytes(t, spec); !bytes.Equal(got, want) {
			t.Fatalf("trace differs between workers=1 and workers=%d", workers)
		}
	}
}

// TestAllScenariosTracedWorkersDifferential is the full-registry
// differential for the de-boxed/pooled hot path: every registered
// scenario, run with a tracer attached, must produce byte-identical
// JSONL traces and identical results at 1, 2, and 8 workers. This is the
// widest net for recycling bugs — typed payload slots, pooled watchdog
// records, and the once-per-assembly compiled timeline are all shared
// across the executions a worker processes, so any state leaking through
// Reset shows up as a worker-count-dependent divergence in some
// scenario's trace.
func TestAllScenariosTracedWorkersDifferential(t *testing.T) {
	for _, name := range Names() {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := TraceSpec{Scenario: s, Replicas: 3, Executions: 20, Seed: 9, Workers: 1}
		want := traceBytes(t, spec)
		if len(want) == 0 {
			t.Fatalf("%s: empty trace", name)
		}
		wantReps, err := RunTraced(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			spec.Workers = workers
			if got := traceBytes(t, spec); !bytes.Equal(got, want) {
				t.Fatalf("%s: trace differs between workers=1 and workers=%d", name, workers)
			}
			gotReps, err := RunTraced(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			for i := range gotReps {
				if !reflect.DeepEqual(gotReps[i].Result.Digest, wantReps[i].Result.Digest) {
					t.Fatalf("%s replica %d: digest differs between workers=1 and workers=%d",
						name, gotReps[i].Replica, workers)
				}
			}
		}
	}
}

// TestTracedMatchesUntracedResults pins the zero-perturbation contract:
// attaching a tracer must not change the replica's results in any way —
// same digest, QoS, suspicion counts, event counts — because tracing
// consumes no randomness and schedules no events.
func TestTracedMatchesUntracedResults(t *testing.T) {
	for _, name := range []string{"gc-storm", "flaky-link", "rolling-crash"} {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := TraceSpec{Scenario: s, Replicas: 2, Executions: 15, Seed: 11}
		traced, err := RunTraced(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := RunCampaignContext(context.Background(), CampaignSpec{
			Scenarios: []*Scenario{s}, Replicas: 2, Executions: 15, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		var agg Report
		for _, r := range traced {
			res := r.Result
			agg.Digest.Merge(&res.Digest)
			agg.Decided += res.Decided
			agg.Aborted += res.Aborted
			agg.Suspicions += res.Suspicions
			agg.WrongSuspicions += res.WrongSuspicions
			agg.DESEvents += res.Events
		}
		want := plain[0]
		if agg.Decided != want.Decided || agg.Aborted != want.Aborted ||
			agg.Suspicions != want.Suspicions || agg.WrongSuspicions != want.WrongSuspicions ||
			agg.DESEvents != want.DESEvents {
			t.Fatalf("%s: traced run perturbs results: traced %+v, untraced %+v", name, agg, *want)
		}
		if !reflect.DeepEqual(agg.Digest.Quantiles(0.5, 0.99), want.Digest.Quantiles(0.5, 0.99)) {
			t.Fatalf("%s: traced run perturbs latency digest", name)
		}
	}
}

// TestTracedReplicaSteadyStateAllocs pins the enabled-tracer hot path:
// with the ring allocated once, a traced steady-state replica must stay
// within the untraced per-execution allocation budget plus the
// end-of-run snapshot (ring copy + wrong-suspicion slice).
func TestTracedReplicaSteadyStateAllocs(t *testing.T) {
	s, err := Get("gc-storm")
	if err != nil {
		t.Fatal(err)
	}
	const execs = 50
	tr := trace.New(1 << 12)
	r, err := newReplica(s, RunConfig{Executions: execs, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(1)
	for ; seed <= 3; seed++ {
		if _, err := r.run(context.Background(), seed); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		seed++
		if _, err := r.run(context.Background(), seed); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: the untraced 40/execution plus a small per-run constant for
	// Snapshot (one Trace header + one ring-sized Events copy) and the
	// Wrong slice. Emit itself must contribute nothing.
	if perExec := (allocs - 10) / execs; perExec > 40 {
		t.Fatalf("traced steady-state replica allocates %.0f objects (%.1f/execution), want <= 40/execution + snapshot", allocs, perExec)
	}
}

// TestTracedRunCapTruncation: a tiny ring must drop oldest events,
// report them, and stay deterministic.
func TestTracedRunCapTruncation(t *testing.T) {
	s, err := Get("gc-storm")
	if err != nil {
		t.Fatal(err)
	}
	spec := TraceSpec{Scenario: s, Replicas: 1, Executions: 5, Seed: 3, Cap: 64}
	reps, err := RunTraced(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res := reps[0].Result
	if res.Trace.Dropped == 0 {
		t.Fatal("expected ring truncation with cap 64")
	}
	if len(res.Trace.Events) != 64 {
		t.Fatalf("retained %d events, want 64", len(res.Trace.Events))
	}
	var b bytes.Buffer
	if err := res.Trace.WriteJSONL(&b, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"meta":"ring-truncated"`) {
		t.Fatal("truncated dump missing meta line")
	}
}

// TestWriteExplain: a scenario engineered to produce wrong suspicions
// (long pauses under a short timeout) must yield explain output that
// names the suspicion pair and shows relevant events.
func TestWriteExplain(t *testing.T) {
	s, err := Get("gc-storm")
	if err != nil {
		t.Fatal(err)
	}
	// Hunt a seed with at least one wrong suspicion; gc-storm is built to
	// produce them, but not every (seed, replica) draw does.
	for seed := uint64(1); seed <= 30; seed++ {
		reps, err := RunTraced(context.Background(), TraceSpec{
			Scenario: s, Replicas: 1, Executions: 30, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := reps[0]
		if len(r.Result.Wrong) == 0 {
			continue
		}
		if r.Result.WrongSuspicions != len(r.Result.Wrong) {
			t.Fatalf("Wrong details (%d) disagree with WrongSuspicions count (%d)",
				len(r.Result.Wrong), r.Result.WrongSuspicions)
		}
		var b bytes.Buffer
		n, err := WriteExplain(&b, r, 50)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(r.Result.Wrong) {
			t.Fatalf("explained %d suspicions, want %d", n, len(r.Result.Wrong))
		}
		out := b.String()
		if !strings.Contains(out, "wrong suspicion") || !strings.Contains(out, "suspect") {
			t.Fatalf("explain output missing expected content:\n%s", out)
		}
		return
	}
	t.Fatal("no seed in 1..30 produced a wrong suspicion under gc-storm")
}

// BenchmarkScenarioCampaignTraced mirrors BenchmarkScenarioCampaignSerial
// (same scenario, replica count, executions, serial workers) with the
// tracer attached: the ns/op delta between the two is the cost of
// enabled tracing, a row of scripts/bench_ab.sh.
func BenchmarkScenarioCampaignTraced(b *testing.B) {
	s, err := Get("gc-storm")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := RunTraced(context.Background(), TraceSpec{
			Scenario: s, Replicas: 8, Executions: 150,
			Workers: 1, Seed: uint64(i) + 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
