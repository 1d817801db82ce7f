package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
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
		var buf bytes.Buffer
		var done []int
		err := Run(context.Background(), reorderedStudy(),
			WithSeed(3), WithWorkers(workers),
			WithSink(NewJSONLWriter(&buf)),
			WithProgress(func(d, total int, last *Result) {
				if last.Index != d-1 || total != len(order) {
					t.Errorf("workers=%d: progress (%d/%d) carried point %d", workers, d, total, last.Index)
				}
				done = append(done, d)
			}))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for k, d := range done {
			if d != k+1 {
				t.Fatalf("workers=%d: progress calls %v, want 1..%d", workers, done, len(order))
			}
		}
		if len(done) != len(order) {
			t.Fatalf("workers=%d: %d progress calls, want %d", workers, len(done), len(order))
		}
		return buf.Bytes()
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

// blockingCache holds the point with the given hash inside Get — running,
// as far as the study can tell — until release is closed or a timeout
// passes, and misses on everything.
type blockingCache struct {
	hash    string
	release chan struct{}
	held    atomic.Bool // the held point has not yet left Get
}

func (c *blockingCache) Get(hash string) (*Result, bool) {
	if hash == c.hash {
		select {
		case <-c.release:
		case <-time.After(5 * time.Second):
		}
		c.held.Store(false)
	}
	return nil, false
}

func (*blockingCache) Put(string, *Result) {}

// TestShardCheckpointsAtCompletion: a shard writes each record when its
// point completes, not when the point's turn to be emitted comes. Point 0
// (the heaviest chain, so it starts first) is held running on one worker
// while the other completes points 1..k; onPoint stops the shard at the
// k-th, and the store then already holds those k records — with point 0
// still running. Checkpointing at emission would write nothing until
// point 0 completed.
func TestShardCheckpointsAtCompletion(t *testing.T) {
	const k = 3
	points := []Point{LatencyPoint{Name: "held", N: 5, Executions: 30, TimeoutT: 10}}
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
	cache := &blockingCache{hash: hashes[0], release: make(chan struct{})}
	cache.held.Store(true)
	store := openStore(t)
	stop := errors.New("stopped by onPoint")
	completed := 0
	onPoint := func(index int, _ []byte) error {
		if completed++; completed < k {
			return nil
		}
		if completed == k {
			defer close(cache.release)
			if !cache.held.Load() {
				t.Errorf("record %d was written only after point 0 completed", k)
			}
			var got []int
			for _, line := range store.Records() {
				got = append(got, recordIndex(t, line))
			}
			if slices.Contains(got, 0) || len(got) != k {
				t.Errorf("store holds points %v at completion %d, want %d points other than 0", got, k, k)
			}
			return stop
		}
		return nil
	}
	err = RunShardRange(context.Background(), frozen, 0, len(points), store, onPoint,
		WithWorkers(2), WithPointCache(cache))
	if !errors.Is(err, stop) || !strings.Contains(err.Error(), "stopped by onPoint") {
		t.Fatalf("RunShardRange = %v, want the onPoint stop", err)
	}
	if n := len(store.Records()); n < k {
		t.Fatalf("stopped shard holds %d records, want at least %d", n, k)
	}
}
