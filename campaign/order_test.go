package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"ctsan/internal/scenario"
)

// The start order (startOrder): chains — points no second worker can
// join — heaviest estimate first, then the divisible points, ties and
// divisible points in index order; results still emitted in index order.

// studyOrder is the start order Run gives a study: freeze, rank.
func studyOrder(t *testing.T, s *Study) (order []int, labels []string) {
	t.Helper()
	frozen, prep, err := frozenWith(s, &options{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	chains := make([]float64, len(prep))
	for i, p := range frozen.Points {
		chains[i] = prep[i].chain
		labels = append(labels, p.Label())
	}
	return startOrder(chains), labels
}

// TestStartOrderRanksEmuGrid: the benchmark's emu-grid study (its shapes
// and committed sizes) starts c1-n7, c3-n5, c1-n5, c2-n5, c1-n3, c3-n3 —
// c1-n5 and c2-n5 tie and keep index order.
func TestStartOrderRanksEmuGrid(t *testing.T) {
	const big, small = 31250, 12500
	order, labels := studyOrder(t, NewStudy("emu-grid",
		LatencyPoint{Name: "c1-n3", N: 3, Executions: big},
		LatencyPoint{Name: "c1-n5", N: 5, Executions: big},
		LatencyPoint{Name: "c1-n7", N: 7, Executions: big},
		LatencyPoint{Name: "c2-n5", N: 5, Executions: big, Crashed: []int{1}},
		LatencyPoint{Name: "c3-n3-T10", N: 3, Executions: small, TimeoutT: 10},
		LatencyPoint{Name: "c3-n5-T10", N: 5, Executions: small, TimeoutT: 10},
	))
	var got []string
	for _, i := range order {
		got = append(got, labels[i])
	}
	want := []string{"c1-n7", "c3-n5-T10", "c1-n5", "c2-n5", "c1-n3", "c3-n3-T10"}
	if !slices.Equal(got, want) {
		t.Fatalf("emu-grid starts %v, want %v", got, want)
	}
}

// TestStartOrderIdentityWithoutChains: studies with no chain — the
// benchmark's san-grid and fault-scenarios shapes — start in index order,
// as they did before there was a start order.
func TestStartOrderIdentityWithoutChains(t *testing.T) {
	faults := NewStudy("fault-scenarios")
	for _, name := range scenario.Names() {
		faults.Add(ScenarioPoint{Name: name, Replicas: 105})
	}
	for _, s := range []*Study{
		NewStudy("san-grid",
			SANPoint{Name: "c1-n3", N: 3, Replicas: 7500},
			SANPoint{Name: "c1-n5", N: 5, Replicas: 7500},
			SANPoint{Name: "c1-n7", N: 7, Replicas: 7500},
			SANPoint{Name: "c2-n5", N: 5, Replicas: 7500, Crashed: []int{1}},
			SANPoint{Name: "c3-n3", N: 3, Replicas: 3750, TMR: 30, TM: 2},
			SANPoint{Name: "c3-n5", N: 5, Replicas: 3750, TMR: 30, TM: 2},
		),
		faults,
	} {
		order, _ := studyOrder(t, s)
		for k, i := range order {
			if i != k {
				t.Fatalf("%s starts %v, want index order", s.Name, order)
			}
		}
	}
}

// reorderedStudy mixes every kind of point so that the start order is far
// from index order: index 0 is its cheapest chain, the heaviest chain sits
// in the middle, and divisible SAN and Scenario points are interleaved.
func reorderedStudy() *Study {
	return NewStudy("reordered",
		LatencyPoint{Name: "cheapest-chain", N: 3, Executions: 8},
		SANPoint{Name: "san", N: 3, Replicas: 120, Tmax: 1e6},
		LatencyPoint{Name: "heavy-chain", N: 5, Executions: 60, TimeoutT: 10},
		ScenarioPoint{Name: "paper-baseline", Replicas: 1, Executions: 25},
		ScenarioPoint{Name: "rolling-crash", Replicas: 3, Executions: 30},
		LatencyPoint{Name: "mid-chain", N: 5, Executions: 40, Crashed: []int{2}},
		SANPoint{Name: "san-class3", N: 5, Replicas: 200, TMR: 30, TM: 2, Tmax: 1e5},
	)
}

// TestReorderedStudyDeterministicAcrossWorkers: a study that starts far
// from index order still emits the one-worker JSONL bytes at 2 and 8
// workers, with progress calls done = 1..total in index order.
func TestReorderedStudyDeterministicAcrossWorkers(t *testing.T) {
	order, _ := studyOrder(t, reorderedStudy())
	if order[0] == 0 {
		t.Fatalf("start order %v no longer moves index 0", order)
	}
	run := func(workers int) []byte {
		var done []int
		lines := resultLines(t, reorderedStudy(),
			WithSeed(3), WithWorkers(workers),
			WithProgress(func(d, total int, last *Result) {
				if last.Index != d-1 || total != len(order) {
					t.Errorf("workers=%d: progress (%d/%d) carried point %d", workers, d, total, last.Index)
				}
				done = append(done, d)
			}))
		for k, d := range done {
			if d != k+1 {
				t.Fatalf("workers=%d: progress calls %v, want 1..%d", workers, done, len(order))
			}
		}
		if len(done) != len(order) {
			t.Fatalf("workers=%d: %d progress calls, want %d", workers, len(done), len(order))
		}
		return bytes.Join(lines, []byte("\n"))
	}
	want := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); !bytes.Equal(got, want) {
			t.Errorf("JSONL at %d workers differs from one worker\n got %s\nwant %s", w, got, want)
		}
	}
}

// TestFailingStudyErrorIndependentOfWorkers: two points fail; the run
// reports the one at the lower start position — which is not the lower
// index — at every width, even where that failure is the later of the
// two to arrive.
func TestFailingStudyErrorIndependentOfWorkers(t *testing.T) {
	order, labels := studyOrder(t, reorderedStudy())
	first, second := order[1], order[len(order)-2] // positions 1 and n-2
	if first < second {
		t.Fatalf("start order %v: the failing points no longer invert index order", order)
	}
	fail := func(o *options) {
		o.completed = func(i int, res *Result) error {
			switch i {
			case first:
				// Long enough for the other workers to reach and fail the
				// second point first.
				time.Sleep(20 * time.Millisecond)
			case second:
			default:
				return nil
			}
			return fmt.Errorf("injected failure of %s", res.Point)
		}
	}
	want := fmt.Sprintf("campaign: point %d (%s): injected failure of %s", first, labels[first], labels[first])
	for _, w := range []int{1, 2, 8} {
		err := Run(context.Background(), reorderedStudy(), WithSeed(3), WithWorkers(w), fail)
		if err == nil || err.Error() != want {
			t.Errorf("workers=%d: err = %v, want %q", w, err, want)
		}
	}
}

// TestShardCheckpointsAtCompletion: RunRecords emits each record when
// its point completes, not when the point's turn to be emitted comes —
// so a shard checkpoints at completion. Point 0 (the heaviest chain, so
// it starts first) runs a million executions on one worker while the
// other completes points 1..k; emit stops the run at the k-th — failing
// it and canceling point 0 — and k records have then been emitted, with
// point 0 still running. Emitting at the point's turn would emit nothing
// until point 0 completed.
func TestShardCheckpointsAtCompletion(t *testing.T) {
	const k = 3
	points := []Point{LatencyPoint{Name: "held", N: 5, Executions: 1 << 20, TimeoutT: 10}}
	for i := 1; i <= 6; i++ {
		points = append(points, SANPoint{N: 3, Replicas: 20})
	}
	frozen, err := Frozen(NewStudy("held-shard", points...), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := errors.New("stopped by emit")
	var got []int
	emit := func(index int, line []byte) error {
		requireOracleRead(t, line)
		if got = append(got, recordIndex(t, line)); len(got) < k {
			return nil
		}
		if len(got) == k {
			if slices.Contains(got, 0) || !slices.Contains(got, index) {
				t.Errorf("records of points %v emitted by completion %d, want %d points other than 0", got, k, k)
			}
			cancel()
			return stop
		}
		return nil
	}
	indices := make([]int, len(points))
	for i := range indices {
		indices[i] = i
	}
	// Canceled point 0 is first in the start order, so its error may be
	// the one reported.
	err = RunRecords(ctx, frozen, hashes, indices, emit, WithWorkers(2))
	if !errors.Is(err, stop) && !errors.Is(err, context.Canceled) {
		t.Fatalf("RunRecords = %v, want the emit stop or the cancellation", err)
	}
	if len(got) < k {
		t.Fatalf("stopped run emitted %d records, want at least %d", len(got), k)
	}
}
