package parallel

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var bg = context.Background()

func TestWorkersResolution(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatalf("Workers(3) = %d", Workers(3))
	}
	if Workers(0) < 1 || Workers(-2) < 1 {
		t.Fatal("non-positive request must resolve to at least 1 worker")
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 7, 64} {
		const n = 1000
		var hits [n]atomic.Int32
		if err := ForEach(bg, w, n, func(_, i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", w, i, got)
			}
		}
	}
}

func TestForEachWorkerSlotsAreExclusive(t *testing.T) {
	// Per-worker state must be mutable without synchronization: hammer a
	// plain (non-atomic) counter per worker slot under the race detector.
	const n, w = 2000, 8
	counts := make([]int, w)
	if err := ForEach(bg, w, n, func(worker, _ int) error {
		counts[worker]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("worker counters sum to %d, want %d", total, n)
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	called := false
	if err := ForEach(bg, 4, 0, func(_, _ int) error { called = true; return nil }); err != nil || called {
		t.Fatal("n=0 must be a no-op")
	}
	if err := ForEach(bg, 4, -5, func(_, _ int) error { called = true; return nil }); err != nil || called {
		t.Fatal("negative n must be a no-op")
	}
}

func TestForEachError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, w := range []int{1, 4} {
		err := ForEach(bg, w, 100, func(_, i int) error {
			if i == 42 {
				return fmt.Errorf("index %d: %w", i, sentinel)
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: error not propagated: %v", w, err)
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	// Both the serial reference path and the pooled path must re-raise a
	// unit panic on the caller, wrapped so the unit index and the original
	// stack survive the goroutine hop.
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				up, ok := recover().(*UnitPanic)
				if !ok {
					t.Fatalf("workers=%d: panic value is not *UnitPanic", w)
				}
				if up.Index != 13 || up.Value != "kaboom" {
					t.Fatalf("workers=%d: wrapped panic = {index %d, value %v}", w, up.Index, up.Value)
				}
				if !strings.Contains(string(up.Stack), "parallel_test") {
					t.Fatalf("workers=%d: captured stack does not reach the panic site", w)
				}
			}()
			_ = ForEach(bg, w, 100, func(_, i int) error {
				if i == 13 {
					panic("kaboom")
				}
				return nil
			})
			t.Fatal("unreachable: panic expected")
		}()
	}
}

func TestUnitPanicNested(t *testing.T) {
	// Nested pools keep the innermost wrap: the replica index, not the
	// point index, identifies the blast site.
	defer func() {
		up, ok := recover().(*UnitPanic)
		if !ok || up.Index != 3 {
			t.Fatalf("panic value = %#v, want inner *UnitPanic with index 3", recover())
		}
	}()
	_ = ForEach(bg, 2, 4, func(_, outer int) error {
		return ForEach(bg, 2, 8, func(_, inner int) error {
			if outer == 1 && inner == 3 {
				panic("inner kaboom")
			}
			return nil
		})
	})
	t.Fatal("unreachable: panic expected")
}

func TestUnitPanicUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	up := &UnitPanic{Index: 7, Value: fmt.Errorf("wrapped: %w", sentinel)}
	if !errors.Is(up, sentinel) {
		t.Fatal("error panic value not reachable through Unwrap")
	}
	if (&UnitPanic{Index: 1, Value: "text"}).Unwrap() != nil {
		t.Fatal("non-error panic value produced an Unwrap error")
	}
	if !strings.Contains(up.Error(), "work unit 7") {
		t.Fatalf("Error() does not name the unit: %q", up.Error())
	}
}

func TestForEachCancellation(t *testing.T) {
	// A canceled campaign must stop promptly — no new units after the
	// cancel lands — and return the clean context error.
	for _, w := range []int{1, 4} {
		ctx, cancel := context.WithCancel(bg)
		var started atomic.Int32
		err := ForEach(ctx, w, 10_000, func(_, i int) error {
			if started.Add(1) == 5 {
				cancel()
			}
			time.Sleep(100 * time.Microsecond)
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		// In-flight units (at most one per worker) may finish after the
		// cancel; nothing beyond that may start.
		if got := started.Load(); got > int32(5+w) {
			t.Fatalf("workers=%d: %d units started after cancellation at unit 5", w, got)
		}
	}
}

func TestForEachCompletedRunBeatsCancellation(t *testing.T) {
	// When every unit has completed, a cancellation that landed during the
	// final units must not turn the whole (fully computed) run into an
	// error — serial and parallel paths must agree on success.
	const n = 4
	for _, w := range []int{1, n} {
		ctx, cancel := context.WithCancel(bg)
		var claimed sync.WaitGroup
		if w == n {
			claimed.Add(n)
		}
		err := ForEach(ctx, w, n, func(_, i int) error {
			if w == n {
				// Barrier: every unit is in flight before anyone cancels,
				// so no unit can be skipped.
				claimed.Done()
				claimed.Wait()
			}
			if i == n-1 {
				cancel()
			}
			return nil
		})
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: completed run reported %v, want nil", w, err)
		}
	}
}

func TestForEachPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	called := false
	err := ForEach(ctx, 4, 100, func(_, _ int) error { called = true; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if called {
		t.Fatal("no unit may start under a pre-canceled context")
	}
}

func TestForEachUnitErrorBeatsCancellation(t *testing.T) {
	// When a unit fails and the context is canceled, the more informative
	// unit error wins.
	sentinel := errors.New("unit failed")
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	err := ForEach(ctx, 1, 10, func(_, i int) error {
		if i == 3 {
			cancel()
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the unit error", err)
	}
}

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	square := func(_, i int) (int, error) { return i * i, nil }
	ref, err := Map(bg, 1, 500, square)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 16} {
		got, err := Map(bg, w, 500, square)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, got[i], ref[i])
			}
		}
	}
}

func TestMapError(t *testing.T) {
	out, err := Map(bg, 4, 10, func(_, i int) (int, error) {
		if i >= 5 {
			return 0, errors.New("bad")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Fatalf("Map error mishandled: %v %v", out, err)
	}
}

func TestStreamEmitsInIndexOrder(t *testing.T) {
	// Whatever the completion order, emission must be 0, 1, 2, ... with
	// every index delivered exactly once.
	for _, w := range []int{1, 2, 8} {
		const n = 300
		var got []int
		err := Stream(bg, w, n,
			func(_, i int) (int, error) {
				if i%7 == 0 { // perturb completion order
					time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
				}
				return i * 10, nil
			},
			func(i, v int) error {
				if v != i*10 {
					return fmt.Errorf("emit(%d) got value %d", i, v)
				}
				got = append(got, i)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: emitted %d of %d results", w, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: emission order broken at position %d: %d", w, i, v)
			}
		}
	}
}

func TestStreamEmitsBeforeCompletion(t *testing.T) {
	// Streaming means early results are delivered while later units are
	// still running — not folded at the end.
	release := make(chan struct{})
	emitted := make(chan int, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		err := Stream(bg, 2, 4,
			func(_, i int) (int, error) {
				if i == 3 {
					<-release // hold the last unit until index 0 was observed emitted
				}
				return i, nil
			},
			func(i, _ int) error { emitted <- i; return nil })
		if err != nil {
			t.Error(err)
		}
	}()
	select {
	case i := <-emitted:
		if i != 0 {
			t.Errorf("first emission = %d, want 0", i)
		}
	case <-time.After(5 * time.Second):
		t.Error("no emission while a later unit was still in flight")
	}
	close(release)
	wg.Wait()
}

func TestStreamEmitErrorAborts(t *testing.T) {
	sentinel := errors.New("sink full")
	var emits atomic.Int32
	err := Stream(bg, 4, 100,
		func(_, i int) (int, error) { return i, nil },
		func(i, _ int) error {
			emits.Add(1)
			if i == 10 {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if got := emits.Load(); got != 11 {
		t.Fatalf("emit called %d times, want exactly 11 (0..10, none after the failure)", got)
	}
}

func TestStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	var emitted atomic.Int32
	err := Stream(ctx, 2, 10_000,
		func(_, i int) (int, error) { return i, nil },
		func(i, _ int) error {
			if emitted.Add(1) == 3 {
				cancel()
			}
			return nil
		})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestForEachChunkCoversEveryIndexOnce: whatever the pool, the count and
// the chunk cap, every index runs exactly once, the indices one worker
// runs back to back ascend (a chunk is contiguous and in order), and the
// pool's unit counter moves by chunks, not by indices.
func TestForEachChunkCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 7, 64} {
		for _, n := range []int{0, 1, 5, 63, 64, 65, 1000} {
			for _, maxChunk := range []int{1, 8, 64} {
				hits := make([]atomic.Int32, n)
				last := make([]int, Workers(w))
				for i := range last {
					last[i] = -1
				}
				if err := ForEachChunk(bg, w, n, maxChunk, func(worker, i int) error {
					hits[i].Add(1)
					if i <= last[worker] {
						t.Errorf("workers=%d n=%d maxChunk=%d: worker %d ran index %d after %d", w, n, maxChunk, worker, i, last[worker])
					}
					last[worker] = i
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				for i := range hits {
					if got := hits[i].Load(); got != 1 {
						t.Fatalf("workers=%d n=%d maxChunk=%d: index %d executed %d times", w, n, maxChunk, i, got)
					}
				}
			}
		}
	}
	units := func() int64 {
		n, _ := strconv.ParseInt(expvar.Get("ctsan.work_units_completed").String(), 10, 64)
		return n
	}
	before := units()
	if err := ForEachChunk(bg, 1, 640, 64, func(_, _ int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := units() - before; got != 10 {
		t.Fatalf("640 indices in chunks of 64 were accounted for as %d units, want 10", got)
	}
}

// TestForEachChunkStopsAtTheFailingIndex: an error ends the run at its
// index — the rest of its chunk does not run on the serial path — and
// beats a cancellation observed in the same chunk; a cancellation alone,
// seen between two indices of one chunk, returns ctx.Err().
func TestForEachChunkStopsAtTheFailingIndex(t *testing.T) {
	sentinel := errors.New("unit failed")
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	ran := 0
	err := ForEachChunk(ctx, 1, 100, 64, func(_, i int) error {
		ran++
		if i == 3 {
			cancel()
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || ran != 4 {
		t.Fatalf("err = %v after %d indices, want the unit error after 4", err, ran)
	}
	ctx, cancel = context.WithCancel(bg)
	defer cancel()
	ran = 0
	err = ForEachChunk(ctx, 1, 100, 64, func(_, i int) error {
		ran++
		if i == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || ran != 4 {
		t.Fatalf("err = %v after %d indices, want context.Canceled after 4", err, ran)
	}
}

// TestForEachChunkPanicNamesTheIndex: a panic inside a chunk is wrapped
// with the index whose fn panicked, not the chunk's.
func TestForEachChunkPanicNamesTheIndex(t *testing.T) {
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				up, ok := recover().(*UnitPanic)
				if !ok {
					t.Fatalf("workers=%d: panic value is not *UnitPanic", w)
				}
				if up.Index != 77 || up.Value != "kaboom" || !strings.Contains(string(up.Stack), "parallel_test") {
					t.Fatalf("workers=%d: wrapped panic = {index %d, value %v}", w, up.Index, up.Value)
				}
			}()
			_ = ForEachChunk(bg, w, 1000, 64, func(_, i int) error {
				if i == 77 {
					panic("kaboom")
				}
				return nil
			})
			t.Fatal("unreachable: panic expected")
		}()
	}
}
