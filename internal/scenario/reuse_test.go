package scenario

import (
	"context"
	"reflect"
	"testing"

	"ctsan/internal/experiment"
)

// TestRunReuseMatchesFresh is the scenario-level reset ≡ fresh
// differential: rerunning one replica assembly across seeds must produce
// bit-identical results to constructing a fresh assembly per seed — for
// every built-in scenario, covering crashes/recoveries, partitions, link
// rules, pause storms, workload phases, and both detector kinds.
func TestRunReuseMatchesFresh(t *testing.T) {
	for _, name := range Names() {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := RunConfig{Executions: 40}
		reused, err := newReplica(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 5; seed++ {
			cfg.Seed = seed
			want, err := Run(s, cfg) // fresh assembly per replica
			if err != nil {
				t.Fatal(err)
			}
			got, err := reused.run(context.Background(), seed)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: reused replica result differs from fresh construction:\n got %+v\nwant %+v",
					name, seed, got, want)
			}
		}
	}
}

// TestScenarioReplicaSteadyStateAllocs pins the allocation-lean replica
// loop: with the assembly reused, a steady-state replica must not
// reconstruct the cluster, stacks, engines or detectors — and, since
// payloads stopped boxing through `any`, watchdog closures became pooled
// records, and the timeline compiles once per assembly, it must not pay
// any per-message or per-watchdog cost either. What remains is a handful
// of per-replica allocations (result struct, occasional pool/ring
// growth) amortized over the executions: well under 4/execution, four
// orders of magnitude below the ~25k a constructed-per-replica gc-storm
// run used to take.
func TestScenarioReplicaSteadyStateAllocs(t *testing.T) {
	s, err := Get("gc-storm")
	if err != nil {
		t.Fatal(err)
	}
	const execs = 50
	r, err := newReplica(s, RunConfig{Executions: execs})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pools across a few seeds (different seeds exercise
	// different event interleavings and pool high-water marks).
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
	if perExec := allocs / execs; perExec > 4 {
		t.Fatalf("steady-state replica allocates %.0f objects (%.1f/execution), want <= 4/execution", allocs, perExec)
	}
}

// TestSubSkewDeadline: a Deadline below the clock-skew spread lets the
// watchdog close an execution before some host's StartAt fires. The
// stale StartAt must be a no-op — its pooled record carries the
// execution index it was armed for — not a ghost Propose into the
// successor execution. With a 0.02 ms deadline no consensus can complete
// (one hop needs ~0.1 ms), so every execution must be cleanly aborted
// and nothing may decide, panic, or trip the agreement checks — in both
// configurations of the shared execution machine.
func TestSubSkewDeadline(t *testing.T) {
	cases := []struct {
		name string
		run  func(seed uint64) (decided, aborted int, err error)
	}{
		{"experiment", func(seed uint64) (int, int, error) {
			res, err := experiment.RunLatencyContext(context.Background(), experiment.LatencySpec{
				N: 3, Executions: 30, Seed: seed, Deadline: 0.02,
			})
			if err != nil {
				return 0, 0, err
			}
			return res.Digest.N(), res.Aborted, nil
		}},
		{"scenario", func(seed uint64) (int, int, error) {
			s := New("tiny-deadline", 3).WithExecutions(30)
			res, err := Run(s, RunConfig{Seed: seed, Deadline: 0.02})
			if err != nil {
				return 0, 0, err
			}
			return res.Decided, res.Aborted, nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 20; seed++ {
				decided, aborted, err := tc.run(seed)
				if err != nil {
					t.Fatal(err)
				}
				if decided != 0 || aborted != 30 {
					t.Fatalf("seed %d: %d decided / %d aborted, want 0/30 (ghost proposals leaked?)",
						seed, decided, aborted)
				}
			}
		})
	}
}
