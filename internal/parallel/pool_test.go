package parallel

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// patience bounds every wait of these tests on something a correct pool
// does at once and a wrong one never does.
const patience = 10 * time.Second

// settled reports whether the goroutine count is back to base: run waits
// for its workers, but a goroutine is still counted for an instant after
// its deferred wg.Done.
func settled(base int) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if runtime.NumGoroutine() <= base {
			return true
		}
	}
	return false
}

// TestIdleWorkerJoinsNestedLoop: two workers, two top-level units; unit 0
// returns at once, unit 1 opens a nested loop whose fn does not return
// until it has been entered under two distinct worker indices. Whichever
// worker ends up without a top-level unit must come and help — a pool
// that only lets the opener draw times out here.
func TestIdleWorkerJoinsNestedLoop(t *testing.T) {
	p := NewPool(2)
	var (
		mu   sync.Mutex
		seen = map[int]bool{}
		both = make(chan struct{})
	)
	err := p.forEach(bg, 2, func(w, i int) error {
		if i == 0 {
			return nil
		}
		return p.ForEachChunk(bg, w, 16, 1, func(hw, _ int) error {
			mu.Lock()
			if seen[hw] = true; len(seen) == 2 {
				select {
				case <-both:
				default:
					close(both)
				}
			}
			mu.Unlock()
			select {
			case <-both:
				return nil
			case <-time.After(patience):
				return errors.New("the nested loop was never entered under a second worker index")
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWorkerIndexExclusiveAcrossLevels: a randomized mix of top-level
// units, most of which open a nested loop of an awkward size, with
// scheduling points sprinkled in. A per-index busy flag flipped by CAS
// catches two fn calls overlapping under one worker index — whichever
// levels they belong to — and every index of every loop runs exactly once.
func TestWorkerIndexExclusiveAcrossLevels(t *testing.T) {
	const maxChunk = 8
	sizes := []int{0, 1, maxChunk - 1, maxChunk, maxChunk + 1, 10*maxChunk + 3}
	for _, width := range []int{1, 2, 3, 8} {
		r := rand.New(rand.NewSource(int64(width)))
		const units = 60
		nested := make([]int, units) // size of the loop unit i opens, -1 for none
		hits := make([][]atomic.Int32, units)
		for i := range nested {
			if nested[i] = -1; r.Intn(4) > 0 {
				nested[i] = sizes[r.Intn(len(sizes))]
				hits[i] = make([]atomic.Int32, nested[i])
			}
		}
		var (
			top  [units]atomic.Int32
			busy = make([]atomic.Bool, width)
		)
		hold := func(worker int, during func()) {
			if !busy[worker].CompareAndSwap(false, true) {
				t.Errorf("width=%d: two calls overlap under worker index %d", width, worker)
			}
			during()
			busy[worker].Store(false)
		}
		p := NewPool(width)
		err := p.forEach(bg, units, func(w, i int) error {
			hold(w, func() {
				top[i].Add(1)
				if i%2 == 0 {
					runtime.Gosched()
				}
			})
			if nested[i] < 0 {
				return nil
			}
			// The opener's own draws run under w inside this call, so the
			// flag is down while the loop is open.
			err := p.ForEachChunk(bg, w, nested[i], maxChunk, func(hw, j int) error {
				hold(hw, func() {
					hits[i][j].Add(1)
					if j%3 == 0 {
						runtime.Gosched()
					}
				})
				return nil
			})
			// The loop returns when every chunk is done, the helpers' too.
			for j := range hits[i] {
				if got := hits[i][j].Load(); got != 1 {
					t.Errorf("width=%d: index %d of unit %d's loop (n=%d) had run %d times when the loop returned", width, j, i, nested[i], got)
				}
			}
			hold(w, runtime.Gosched)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range nested {
			if got := top[i].Load(); got != 1 {
				t.Fatalf("width=%d: top-level unit %d ran %d times", width, i, got)
			}
			for j := range hits[i] {
				if got := hits[i][j].Load(); got != 1 {
					t.Fatalf("width=%d: index %d of unit %d's loop (n=%d) ran %d times", width, j, i, nested[i], got)
				}
			}
		}
	}
}

// TestNestedErrorLowestIndexBeatsCancellation: two indices of a nested
// loop fail, the higher one first, and the lower one cancels the context
// on its way out. The loop — and the top-level call around it — returns
// the lower index's error; the workers that found nothing to draw and
// parked are gone when it does.
func TestNestedErrorLowestIndexBeatsCancellation(t *testing.T) {
	for _, width := range []int{1, 2, 4} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(bg)
		low, high := errors.New("index 3 failed"), errors.New("index 5 failed")
		highFailed := make(chan struct{})
		_, err := Do(ctx, width, func(p *Pool, w int) (int, error) {
			return 0, p.ForEachChunk(ctx, w, 8, 1, func(_, i int) error {
				switch {
				case i == 3 && width > 1:
					select {
					case <-highFailed:
					case <-time.After(patience):
						t.Error("index 5 never ran while index 3 was in flight")
					}
					cancel()
					return low
				case i == 3:
					cancel()
					return low
				case i == 5:
					close(highFailed)
					return high
				}
				return nil
			})
		})
		cancel()
		if !errors.Is(err, low) {
			t.Errorf("width=%d: err = %v, want the error of the lowest failing index", width, err)
		}
		if !settled(base) {
			t.Errorf("width=%d: %d goroutines after the run, %d before", width, runtime.NumGoroutine(), base)
		}
	}
}

// TestNestedPanicOnHelperReachesTheCaller: a helper — not the opener —
// panics inside a nested loop. The panic crosses to the opener's
// goroutine and from there to the top-level caller as one *UnitPanic
// naming the nested index, with the stack of the panic site; parked
// helpers exit.
func TestNestedPanicOnHelperReachesTheCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	var blast atomic.Int64
	blast.Store(-1)
	helperIn := make(chan struct{})
	func() {
		defer func() {
			up, ok := recover().(*UnitPanic)
			if !ok {
				t.Fatal("panic value is not *UnitPanic")
			}
			if int64(up.Index) != blast.Load() || up.Value != "helper kaboom" {
				t.Fatalf("wrapped panic = {index %d, value %v}, want the nested index %d", up.Index, up.Value, blast.Load())
			}
			if !strings.Contains(string(up.Stack), "pool_test") {
				t.Fatal("captured stack does not reach the panic site")
			}
		}()
		_, _ = Do(bg, 4, func(p *Pool, owner int) (int, error) {
			return 0, p.ForEachChunk(bg, owner, 1000, 1, func(w, i int) error {
				if w != owner {
					if blast.CompareAndSwap(-1, int64(i)) {
						close(helperIn)
						panic("helper kaboom")
					}
					return nil
				}
				select {
				case <-helperIn:
				case <-time.After(patience):
					t.Error("no helper joined the nested loop")
				}
				return nil
			})
		})
		t.Fatal("unreachable: panic expected")
	}()
	if !settled(base) {
		t.Errorf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
	}
}

// TestNestedCancellationWithinOneIndex: chunks of 64, canceled at the
// fifth index started. Each worker may finish the index it is in; none
// starts another, although its chunk has dozens left. The nested loop,
// and the run, return ctx.Err(), and parked helpers exit.
func TestNestedCancellationWithinOneIndex(t *testing.T) {
	for _, width := range []int{1, 2, 4} {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(bg)
		var started atomic.Int32
		// A second top-level unit that opens nothing: its worker goes
		// helping, or parks if the loop is already stopped.
		p := NewPool(width)
		err := p.forEach(ctx, 2, func(w, i int) error {
			if i == 1 {
				return nil
			}
			return p.ForEachChunk(ctx, w, 64*4*width, 64, func(_, _ int) error {
				if started.Add(1) == 5 {
					cancel()
				}
				time.Sleep(100 * time.Microsecond)
				return nil
			})
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("width=%d: err = %v, want context.Canceled", width, err)
		}
		if got := started.Load(); got > int32(5+width) {
			t.Errorf("width=%d: %d indices started after the cancel at index 5", width, got-5)
		}
		if !settled(base) {
			t.Errorf("width=%d: %d goroutines after the run, %d before", width, runtime.NumGoroutine(), base)
		}
	}
}

// TestNestedLoopSpreadsOverAOneUnitRun: Do's only unit opens a loop of
// slow indices on a pool of three; every worker index shows up, and the
// per-worker counters — plain ints, under the race detector — add up.
func TestNestedLoopSpreadsOverAOneUnitRun(t *testing.T) {
	const n, width = 300, 3
	counts := make([]int, width)
	total, err := Do(bg, width, func(p *Pool, w int) (int, error) {
		if p.Workers() != width {
			return 0, fmt.Errorf("pool width %d, want %d", p.Workers(), width)
		}
		err := p.ForEachChunk(bg, w, n, 4, func(hw, _ int) error {
			counts[hw]++
			time.Sleep(20 * time.Microsecond)
			return nil
		})
		sum := 0
		for _, c := range counts {
			sum += c
		}
		return sum, err
	})
	if err != nil || total != n {
		t.Fatalf("ran %d of %d indices, err %v", total, n, err)
	}
	for w, c := range counts {
		if c == 0 {
			t.Errorf("worker %d ran no index of a %d-index loop on a pool of %d", w, n, width)
		}
	}
}

// TestStreamOnStartOrder: units start in the given order — on one worker
// exactly that sequence — and are still emitted in index order, each
// once; the error reported is the lowest failing start position's; a
// panic names the unit, not its position; and an order that is not a
// permutation is refused before anything runs.
func TestStreamOnStartOrder(t *testing.T) {
	order := []int{5, 2, 7, 0, 1, 3, 4, 6}
	for _, w := range []int{1, 2, 8} {
		var started []int
		var mu sync.Mutex
		var emitted []int
		err := StreamOn(bg, NewPool(w), order, func(_, i int) (int, error) {
			mu.Lock()
			started = append(started, i)
			mu.Unlock()
			return i * 10, nil
		}, func(i, v int) error {
			if v != i*10 {
				return fmt.Errorf("emit(%d) got %d", i, v)
			}
			emitted = append(emitted, i)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, v := range emitted {
			if v != i {
				t.Fatalf("workers=%d: emitted %v, want index order", w, emitted)
			}
		}
		if len(emitted) != len(order) || len(started) != len(order) {
			t.Fatalf("workers=%d: started %v, emitted %v", w, started, emitted)
		}
		if w == 1 && fmt.Sprint(started) != fmt.Sprint(order) {
			t.Fatalf("one worker started %v, want %v", started, order)
		}
	}

	// Units 7 (position 2) and 1 (position 4) fail; 7 is reported at every
	// width, also when 1's failure arrives first.
	for _, w := range []int{1, 2, 8} {
		err := StreamOn(bg, NewPool(w), order, func(_, i int) (int, error) {
			switch i {
			case 7:
				time.Sleep(10 * time.Millisecond)
				return 0, errors.New("unit 7")
			case 1:
				return 0, errors.New("unit 1")
			}
			return i, nil
		}, func(int, int) error { return nil })
		if err == nil || err.Error() != "unit 7" {
			t.Errorf("workers=%d: err = %v, want the failure at the lowest start position (unit 7)", w, err)
		}
	}

	func() {
		defer func() {
			if up, ok := recover().(*UnitPanic); !ok || up.Index != 7 {
				t.Errorf("panic = %v, want *UnitPanic naming unit 7", up)
			}
		}()
		StreamOn(bg, NewPool(1), order, func(_, i int) (int, error) {
			if i == 7 {
				panic("kaboom")
			}
			return i, nil
		}, func(int, int) error { return nil })
	}()

	for _, bad := range [][]int{{0, 0}, {1, 2}, {-1, 0}} {
		ran := false
		err := StreamOn(bg, NewPool(2), bad, func(_, i int) (int, error) { ran = true; return i, nil },
			func(int, int) error { return nil })
		if err == nil || ran {
			t.Errorf("order %v: err = %v, ran = %v; want a refusal before anything runs", bad, err, ran)
		}
	}
}
