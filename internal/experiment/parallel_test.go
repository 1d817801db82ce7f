package experiment

import (
	"context"
	"reflect"
	"testing"

	"ctsan/internal/neko"
	"ctsan/internal/sanmodel"
)

// TestLatencySweepDeterministicAcrossWorkers: the campaign-sweep results
// must be byte-identical for any worker count — each campaign's randomness
// derives only from its spec's seed, never from scheduling.
func TestLatencySweepDeterministicAcrossWorkers(t *testing.T) {
	specs := []LatencySpec{
		{N: 3, Executions: 40, Seed: 7},
		{N: 5, Executions: 40, Seed: 7},
		{N: 3, Executions: 30, Seed: 9, FDMode: FDHeartbeat, TimeoutT: 10},
		{N: 5, Executions: 25, Seed: 11, Crashed: []neko.ProcessID{1}},
	}
	ref, err := RunLatencySweepContext(context.Background(), specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		got, err := RunLatencySweepContext(context.Background(), specs, w)
		if err != nil {
			t.Fatal(err)
		}
		for s := range specs {
			gl, rl := got[s].Digest.Exact(), ref[s].Digest.Exact()
			if len(gl) != len(rl) {
				t.Fatalf("workers=%d spec %d: %d latencies, want %d", w, s, len(gl), len(rl))
			}
			for i := range rl {
				if gl[i] != rl[i] {
					t.Fatalf("workers=%d spec %d: latency[%d] = %v, want %v (bit-exact)",
						w, s, i, gl[i], rl[i])
				}
			}
			// The digest's derived statistics must be bit-identical too —
			// the streaming-metrics determinism contract.
			for _, q := range []float64{0.5, 0.9, 0.99} {
				if got[s].Digest.Quantile(q) != ref[s].Digest.Quantile(q) {
					t.Fatalf("workers=%d spec %d: q=%g differs", w, s, q)
				}
			}
			if got[s].Digest.Mean() != ref[s].Digest.Mean() || got[s].Digest.Var() != ref[s].Digest.Var() {
				t.Fatalf("workers=%d spec %d: digest moments differ", w, s)
			}
			if got[s].Rounds.N() != ref[s].Rounds.N() || got[s].Rounds.Mean() != ref[s].Rounds.Mean() {
				t.Fatalf("workers=%d spec %d: rounds differ", w, s)
			}
			if got[s].Aborted != ref[s].Aborted || got[s].Texp != ref[s].Texp || got[s].Events != ref[s].Events {
				t.Fatalf("workers=%d spec %d: campaign summary differs", w, s)
			}
		}
	}
}

// TestClass3DeterministicAcrossWorkers covers the (n, T) grid fan-out.
func TestClass3DeterministicAcrossWorkers(t *testing.T) {
	f := QuickFidelity()
	f.QoSExecs = 25
	f.Ns = []int{3}
	f.TGrid = []float64{5, 30}
	run := func(workers int) []Class3Point {
		f.Workers = workers
		pts, err := RunClass3(context.Background(), f, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	ref := run(1)
	got := run(6)
	if len(got) != len(ref) {
		t.Fatalf("point counts differ: %d vs %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i].N != ref[i].N || got[i].T != ref[i].T ||
			got[i].Mean != ref[i].Mean || got[i].Aborted != ref[i].Aborted ||
			got[i].QoS != ref[i].QoS ||
			(got[i].ECDF == nil) != (ref[i].ECDF == nil) ||
			(got[i].ECDF != nil && got[i].ECDF.N() != ref[i].ECDF.N()) {
			t.Fatalf("point %d differs across worker counts:\n got %+v\nwant %+v", i, got[i], ref[i])
		}
	}
}

// TestSimulateWorkersDeterministic pins the SAN-model entry point used by
// Fig. 7(b), Table 1 and Fig. 9(b).
func TestSimulateWorkersDeterministic(t *testing.T) {
	p := sanmodel.DefaultParams(3)
	ref, err := sanmodel.SimulateContext(context.Background(), p, 200, 1e6, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sanmodel.SimulateContext(context.Background(), p, 200, 1e6, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	gs, rs := got.Digest.Exact(), ref.Digest.Exact()
	if len(gs) != len(rs) || got.Truncated != ref.Truncated {
		t.Fatalf("shape differs: %d/%d vs %d/%d", len(gs), got.Truncated, len(rs), ref.Truncated)
	}
	for i := range rs {
		if gs[i] != rs[i] {
			t.Fatalf("sample %d = %v, want %v (bit-exact)", i, gs[i], rs[i])
		}
	}
}

// TestLatencyReuseMatchesFresh is the latency-level reset ≡ fresh
// differential (the mirror of scenario.TestRunReuseMatchesFresh):
// rerunning one harness across seeds must produce bit-identical results
// to assembling a fresh harness per seed — for all three run classes.
func TestLatencyReuseMatchesFresh(t *testing.T) {
	for _, spec := range []LatencySpec{
		{N: 3, Executions: 40},
		{N: 5, Executions: 40, Crashed: []neko.ProcessID{1}},
		{N: 3, Executions: 40, FDMode: FDHeartbeat, TimeoutT: 10},
	} {
		var reused Harnesses
		for seed := uint64(1); seed <= 5; seed++ {
			spec.Seed = seed
			want, err := RunLatencyContext(context.Background(), spec) // fresh assembly per campaign
			if err != nil {
				t.Fatal(err)
			}
			got, err := reused.RunLatency(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if reused.Len() != 1 {
				t.Fatalf("n=%d seed %d: same-shape spec reassembled the harness (%d retained)", spec.N, seed, reused.Len())
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d seed %d: reused harness result differs from fresh assembly:\n got %+v\nwant %+v",
					spec.N, seed, got, want)
			}
		}
	}
}
