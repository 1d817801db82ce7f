// Package parallel is a deterministic worker pool for embarrassingly
// parallel simulation workloads: Monte-Carlo replicas, campaign points,
// parameter sweeps. Work units are identified by index; results land in
// index-order slots, so the outcome of a run is independent of how indices
// are interleaved across workers. Combined with per-index random streams
// (rng.Stream.Child), this yields bit-for-bit reproducible experiments at
// any worker count.
//
// Every entry point takes a context.Context and cancels cooperatively:
// the pool checks the context between work units (a unit that has started
// runs to completion), so a canceled campaign stops promptly and returns
// ctx.Err() without leaving goroutines behind.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"ctsan/internal/obs"
)

// UnitPanic is the value re-raised when a work unit panics: it carries
// the index of the unit that blew up and the stack of the original
// panic site, which the re-raise on the calling goroutine would
// otherwise lose. Nested pools (points fanning out into replicas) keep
// the innermost UnitPanic, whose stack shows the full nesting.
type UnitPanic struct {
	// Index is the work-unit index passed to fn.
	Index int
	// Value is the original panic value.
	Value any
	// Stack is the stack trace captured at the panic site.
	Stack []byte
}

func (p *UnitPanic) Error() string {
	return fmt.Sprintf("parallel: work unit %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// Unwrap exposes a wrapped error panic value to errors.Is/As.
func (p *UnitPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// call invokes one work unit, converting a panic into a re-raised
// *UnitPanic identifying the unit. Each unit is bracketed by the obs
// worker-activity accounting: a deferred recover frame, two clock reads
// and three atomic adds on one cache line every worker shares — a
// hundred-odd nanoseconds, more under contention. A unit is whatever the
// caller indexes: a campaign point, a scenario replica, an emulated
// execution batch are milliseconds of simulation, and the bracket is
// noise. A SAN replica is 5-15 µs, where it was 2-4% of the study; callers
// with units that small go through ForEachChunk, which pays it once per
// chunk.
func call(fn func(worker, i int) error, worker, i int) error {
	h := obs.UnitStart()
	defer func() {
		obs.UnitEnd(h)
		if r := recover(); r != nil {
			reraise(i, r)
		}
	}()
	return fn(worker, i)
}

// reraise panics with r, recovered from work unit i, wrapped as a
// *UnitPanic. An already-wrapped panic — from a nested pool, or from a
// unit inside a chunk — passes through untouched, so the innermost index
// and stack survive.
func reraise(i int, r any) {
	if _, wrapped := r.(*UnitPanic); wrapped {
		panic(r)
	}
	panic(&UnitPanic{Index: i, Value: r, Stack: debug.Stack()})
}

// Workers resolves a requested worker count: values <= 0 mean "one worker
// per available CPU" (runtime.GOMAXPROCS(0)).
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// InnerWorkers splits a worker budget between an outer fan-out over
// `items` independent units and the parallelism inside each unit: the
// product of outer and inner concurrency stays near the budget instead
// of multiplying into budget² goroutines. With many outer items the
// inner work runs serially; with few items the leftover budget goes to
// their inner units.
func InnerWorkers(workers, items int) int {
	w := Workers(workers)
	if items < 1 {
		items = 1
	}
	return (w + items - 1) / items
}

// ForEach runs fn(worker, i) for every i in [0, n), distributing indices
// across at most Workers(workers) goroutines via an atomic work counter.
// Two calls with the same worker value never overlap, so callers may keep
// per-worker scratch state (a reusable simulator, a buffer) in a slice
// indexed by worker without locking.
//
// When the resolved worker count is 1 — or n < 2 — everything runs inline
// on the calling goroutine with worker == 0; this is the reference serial
// path the parallel schedule must be indistinguishable from.
//
// ctx is checked between work units: once it is canceled no new unit
// starts, in-flight units finish, and ForEach returns ctx.Err() (unless a
// unit already failed — fn errors take precedence, and the error observed
// for the lowest index is returned). A panic in fn is re-raised on the
// calling goroutine, wrapped as *UnitPanic so the failing unit's index and
// original stack survive the goroutine hop.
func ForEach(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil // vacuously complete, like a run whose units all finished
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := call(fn, 0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		done   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup

		mu       sync.Mutex
		errIdx   = -1
		firstErr error
		panicked any
		panicSet bool
	)
	fail := func(i int, err error) {
		mu.Lock()
		if errIdx < 0 || i < errIdx {
			errIdx, firstErr = i, err
		}
		mu.Unlock()
		failed.Store(true)
	}
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if !panicSet {
						panicSet, panicked = true, r
					}
					mu.Unlock()
					failed.Store(true)
				}
			}()
			for !failed.Load() && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := call(fn, wk, i); err != nil {
					fail(i, err)
					return
				}
				done.Add(1)
			}
		}(wk)
	}
	wg.Wait()
	if panicSet {
		panic(panicked)
	}
	if firstErr != nil {
		return firstErr
	}
	if done.Load() == int64(n) {
		// Every unit completed before the cancellation landed: the result
		// set is whole, so report success — exactly what the serial path
		// does when the last unit finishes under a just-canceled context.
		return nil
	}
	return ctx.Err()
}

// ForEachChunk is ForEach for units of microseconds: the pool's work unit
// is a contiguous chunk of indices, fn still runs once per index, in
// index order within a chunk. The per-unit bracket (see call) and the
// shared work counter are paid once per chunk; ctx is still checked
// before every index, a panic is still reported with the index whose fn
// panicked, and an error still stops the run at that index. Everything
// ForEach guarantees about worker slots, the serial path, error
// precedence and cancellation holds as stated there.
//
// A chunk holds at most maxChunk indices — the caller's statement of how
// many of its units make the bracket negligible — and fewer when n is
// small for the pool: every worker gets at least four chunks to draw, so
// a short run still spreads over all of them and ends on a short tail.
func ForEachChunk(ctx context.Context, workers, n, maxChunk int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	chunk := min(maxChunk, max(1, n/(4*min(Workers(workers), n))))
	// cut: some chunk stopped short on a canceled ctx. That is not an fn
	// error (those take precedence), and its chunk did not complete.
	var cut atomic.Bool
	err := ForEach(ctx, workers, (n+chunk-1)/chunk, func(w, c int) error {
		i := c * chunk
		defer func() {
			if r := recover(); r != nil {
				reraise(i, r)
			}
		}()
		for end := min(i+chunk, n); i < end; i++ {
			if ctx.Err() != nil {
				cut.Store(true)
				return nil
			}
			if err := fn(w, i); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil && cut.Load() {
		return ctx.Err()
	}
	return err
}

// Map runs fn for every index and collects the results in index order, so
// the returned slice is identical for any worker count. On error (or
// cancellation) the partial results are discarded and the lowest-index
// error — or ctx.Err() — is returned.
func Map[T any](ctx context.Context, workers, n int, fn func(worker, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(ctx, workers, n, func(w, i int) error {
		v, err := fn(w, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Stream is Map with streaming delivery: as soon as the contiguous prefix
// of results is complete, each result is handed to emit(i, v) in strict
// index order, regardless of which workers produced them or when. emit
// calls are serialized (never concurrent with one another) but may run on
// different worker goroutines; they must not block on the producers.
//
// An error from emit aborts the run like an error from fn. On error or
// cancellation, results already emitted stay emitted — Stream makes no
// attempt to retract them — and undelivered buffered results are dropped.
func Stream[T any](ctx context.Context, workers, n int, fn func(worker, i int) (T, error), emit func(i int, v T) error) error {
	var (
		mu       sync.Mutex
		buf      = make([]T, n)
		ready    = make([]bool, n)
		nextOut  int
		emitDead bool // a previous emit failed; never emit again
	)
	return ForEach(ctx, workers, n, func(w, i int) error {
		v, err := fn(w, i)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		buf[i], ready[i] = v, true
		for !emitDead && nextOut < n && ready[nextOut] {
			if err := emit(nextOut, buf[nextOut]); err != nil {
				emitDead = true
				return err
			}
			var zero T
			buf[nextOut] = zero // release emitted values for the collector
			nextOut++
		}
		return nil
	})
}
