package campaign

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// A shared executor (SharedExecutor) keeps the pool and the per-worker
// keyed sets of one Run for the next. These tests hold it to the rules
// its doc states: results are those of a Run on its own executor, one
// Run at a time, a failed Run leaves it empty, and what it keeps between
// Runs is bounded.

// builds is how many engine assemblies the executor's workers hold —
// which is how many they have built, as long as no set has reached its
// capacity (nothing was evicted) and no build failed (a failed build
// retains nothing).
func builds(e *executor) (n int) {
	for w := range e.models {
		n += e.models[w].Len() + e.harnesses[w].Len()
		if e.models[w].Len() >= setCapacity || e.harnesses[w].Len() >= setCapacity {
			panic("a set reached its capacity: its length no longer counts its builds")
		}
	}
	return n
}

// leaseRanges runs the frozen study in consecutive ranges of k points,
// each a RunRecords of its own as a fleet worker runs its leases, with
// opts, and returns the records by grid index. each, when set, sees the
// options of every range's Run after it returns.
func leaseRanges(t *testing.T, frozen *Study, k int, each func(*options), opts ...Option) [][]byte {
	t.Helper()
	hashes, err := StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	records := make([][]byte, len(frozen.Points))
	for start := 0; start < len(frozen.Points); start += k {
		var indices []int
		for i := start; i < min(start+k, len(frozen.Points)); i++ {
			indices = append(indices, i)
		}
		var o *options
		err := RunRecords(context.Background(), frozen, hashes, indices, func(i int, line []byte) error {
			records[i] = line
			return nil
		}, append(opts, captureOptions(&o))...)
		if err != nil {
			t.Fatalf("range %d:%d: %v", start, start+len(indices), err)
		}
		if each != nil {
			each(o)
		}
	}
	return records
}

// TestLeasedFineGridBuildsSixAssembliesInAll counts the engine assemblies
// built for the fine grid leased in 10-point ranges at one worker. Each
// range holds all six of the grid's shapes (three SAN models, three
// harnesses), so a fresh Run per range builds six per range; on one
// shared executor the first range builds them and the other 74 build
// nothing. The records are the same either way.
func TestLeasedFineGridBuildsSixAssembliesInAll(t *testing.T) {
	frozen, err := Frozen(tinyGrid(750), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	fresh, ranges := 0, 0
	want := leaseRanges(t, frozen, 10, func(o *options) {
		fresh += builds(o.exec)
		ranges++
	}, WithWorkers(1))
	if fresh != 6*ranges {
		t.Errorf("fresh Runs built %d assemblies over %d ranges, want 6 per range", fresh, ranges)
	}
	var e *executor
	got := leaseRanges(t, frozen, 10, func(o *options) {
		e = o.exec
		if n := builds(e); n != 6 {
			t.Fatalf("shared executor holds %d assemblies, want the grid's 6", n)
		}
	}, SharedExecutor(1))
	t.Logf("10-point ranges of the %d-point fine grid: %d builds as fresh Runs, %d on one executor", len(frozen.Points), fresh, builds(e))
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("point %d: record on the shared executor differs from the fresh Run's\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// TestSharedExecutorMatchesOnePointStudies runs two generated grids one
// after the other on one executor, in both orders and at 1 and 2
// workers: every record equals the record of its point run alone, so
// what the first study left in the executor does not show in the second.
func TestSharedExecutorMatchesOnePointStudies(t *testing.T) {
	grids := make([]*Study, 2)
	hashes := make([][]string, 2)
	want := make([][][]byte, 2)
	for k, seed := range []uint64{11, 12} {
		var err error
		if grids[k], err = Frozen(NewStudy("shared", heterogeneousGrid(seed, 30)...), WithSeed(seed)); err != nil {
			t.Fatal(err)
		}
		if hashes[k], err = StudyPointHashes(grids[k]); err != nil {
			t.Fatal(err)
		}
		want[k] = recordsAlone(t, grids[k], hashes[k])
	}
	for _, workers := range []int{1, 2} {
		for _, order := range [][]int{{0, 1}, {1, 0}} {
			exec := SharedExecutor(workers)
			for _, k := range order {
				results, err := RunCollect(context.Background(), grids[k], exec)
				if err != nil {
					t.Fatalf("workers=%d order %v: grid %d: %v", workers, order, k, err)
				}
				for i, res := range results {
					got, err := EncodeShardRecord(hashes[k][i], res)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want[k][i]) {
						t.Fatalf("workers=%d order %v: grid %d point %d (%s): record differs from the point run alone\n got %s\nwant %s",
							workers, order, k, i, res.Point, got, want[k][i])
					}
				}
			}
		}
	}
}

// TestSharedExecutorServesOneRunAtATime: a Run passed the executor while
// another runs on it — here, from inside the first Run's progress
// callback — fails without running anything, and so does a Run asking
// for another width. The executor is free again once the first Run
// returns.
func TestSharedExecutorServesOneRunAtATime(t *testing.T) {
	exec := SharedExecutor(2)
	study := NewStudy("one-at-a-time", SANPoint{N: 3, Replicas: 20}, LatencyPoint{N: 3, Executions: 10})
	inner := 0
	err := Run(context.Background(), study, exec, WithProgress(func(int, int, *Result) {
		var ran bool
		err := Run(context.Background(), study, exec, WithProgress(func(int, int, *Result) { ran = true }))
		if err == nil || !strings.Contains(err.Error(), "running another study") || ran {
			t.Errorf("second Run on a busy executor: ran %v, error %v; want a refusal", ran, err)
		}
		inner++
	}))
	if err != nil || inner != 2 {
		t.Fatalf("first Run: %v after %d progress calls", err, inner)
	}
	if err := Run(context.Background(), study, exec, WithWorkers(3)); err == nil || !strings.Contains(err.Error(), "3 workers asked of a shared executor of 2") {
		t.Fatalf("Run at another width: %v", err)
	}
	if err := Run(context.Background(), study, exec, WithWorkers(2)); err != nil {
		t.Fatalf("Run after the first returned: %v", err)
	}
}

// TestFailedRunEmptiesSharedExecutor: a Run that fails may leave an
// assembly mid-run, so it leaves the executor holding none.
func TestFailedRunEmptiesSharedExecutor(t *testing.T) {
	var o *options
	exec := SharedExecutor(1)
	study := NewStudy("fails", SANPoint{N: 3, Replicas: 20}, LatencyPoint{N: 5, Executions: 10})
	if err := Run(context.Background(), study, exec, captureOptions(&o)); err != nil || builds(o.exec) != 2 {
		t.Fatalf("first Run: %v, holding %d assemblies", err, builds(o.exec))
	}
	err := Run(context.Background(), study, exec, WithSink(&failingSink{failAt: 0, err: errors.New("sink full")}))
	if err == nil || builds(o.exec) != 0 {
		t.Fatalf("failing Run: %v, executor left holding %d assemblies", err, builds(o.exec))
	}
}

// TestIdleSharedExecutorRetainsAtMostItsSets bounds what an idle fleet
// worker keeps: after studies over more shapes than a set holds, the
// executor holds at most the sets' capacity per kind and worker, no
// goroutine, and a live heap that dropping it frees within retainBound:
// about twice the 6.5-8 MiB measured for two workers over the
// heterogeneous grids, whose SAN models and harnesses go up to n = 7.
func TestIdleSharedExecutorRetainsAtMostItsSets(t *testing.T) {
	const retainBound = 16 << 20
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	goroutines := runtime.NumGoroutine()
	var o *options
	exec := SharedExecutor(2)
	for i := 1; i <= 12; i++ {
		study := NewStudy("idle", heterogeneousGrid(uint64(i), 12)...)
		if err := Run(context.Background(), study, WithSeed(uint64(i)), exec, captureOptions(&o)); err != nil {
			t.Fatal(err)
		}
	}
	e := o.exec
	for w := range e.models {
		if m, h := e.models[w].Len(), e.harnesses[w].Len(); m > setCapacity || h > setCapacity {
			t.Errorf("worker %d holds %d models and %d harnesses, capacity is %d", w, m, h, setCapacity)
		}
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines with the executor idle, %d before it ran", n, goroutines)
	}
	held := live()
	runtime.KeepAlive(e)
	o, exec, e = nil, nil, nil
	retained := int64(held) - int64(live())
	t.Logf("an idle two-worker executor retains %d KiB", retained>>10)
	if retained > retainBound {
		t.Errorf("an idle executor retains %d KiB, want at most %d KiB", retained>>10, retainBound>>10)
	}
}
