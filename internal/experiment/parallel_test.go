package experiment

import (
	"context"
	"reflect"
	"testing"

	"ctsan/internal/neko"
	"ctsan/internal/sanmodel"
)

// TestSimulateWorkersDeterministic pins the standalone SAN-model entry
// point (a pool of its own) at one and at seven workers.
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
