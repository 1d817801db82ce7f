// Package parallel is a deterministic worker pool for embarrassingly
// parallel simulation workloads: Monte-Carlo replicas, campaign points,
// parameter sweeps. Work units are identified by index; results land in
// index-order slots, so the outcome of a run is independent of how indices
// are interleaved across workers. Combined with per-index random streams
// (rng.Stream.Child), this yields bit-for-bit reproducible experiments at
// any worker count.
//
// A Pool is one worker budget for a whole run, not one per level: its
// workers draw the units of a top-level loop (StreamOn, Do), a unit
// may open a nested loop over its own indices (Pool.ForEachChunk), and a
// worker with no top-level unit left to start joins the nested loops
// still open instead of idling. ForEach, ForEachChunk, Map and Stream are
// the same draw loop on a pool of their own.
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
	"slices"
	"sync"
	"sync/atomic"

	"ctsan/internal/obs"
)

// UnitPanic is the value re-raised when a work unit panics: it carries
// the index of the unit that blew up and the stack of the original
// panic site, which the re-raise on the calling goroutine would
// otherwise lose. Nested loops (points fanning out into replicas) keep
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

// Workers resolves a requested worker count: values <= 0 mean "one worker
// per available CPU" (runtime.GOMAXPROCS(0)).
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// loop is one indexed loop over [0, n), drawn chunk by chunk through an
// atomic counter by every worker inside drain. Top-level and nested loops
// are the same thing; they differ only in who opened them.
type loop struct {
	ctx    context.Context
	fn     func(worker, i int) error
	n      int
	chunk  int
	chunks int
	// order is the start order: the unit at position k is order[k]; nil
	// starts units in index order. Chunks, draws and the error precedence
	// count positions.
	order []int

	next atomic.Int64 // next chunk to start
	// stop: an index failed, panicked, or was skipped on a canceled ctx,
	// so no further chunk starts.
	stop atomic.Bool

	mu       sync.Mutex // guards the outcome, until every worker has left drain
	errPos   int
	err      error
	panicked *UnitPanic
	cut      bool

	helpers int // workers other than the opener inside drain; guarded by Pool.mu
}

// newLoop sizes a loop for a pool of `width` workers. A chunk holds at
// most maxChunk indices, and fewer when n is small for the pool: every
// worker gets at least four chunks to draw, so a short loop still spreads
// over all of them and ends on a short tail.
func newLoop(ctx context.Context, width, n, maxChunk int, fn func(worker, i int) error) *loop {
	chunk := min(maxChunk, max(1, n/(4*min(width, n))))
	return &loop{ctx: ctx, fn: fn, n: n, chunk: chunk, chunks: (n + chunk - 1) / chunk}
}

// drain draws chunks as `worker` until none is left to start.
func (l *loop) drain(worker int) {
	for !l.stop.Load() {
		c := int(l.next.Add(1)) - 1
		if c >= l.chunks {
			return
		}
		l.runChunk(worker, c)
	}
}

// runChunk runs the positions of chunk c in order, checking ctx before
// each and ending the loop at the first that fails, panics or finds ctx
// canceled. The chunk is bracketed by the obs worker-activity accounting:
// a deferred recover frame, two clock reads and three atomic adds on one
// cache line every worker shares — a hundred-odd nanoseconds, more under
// contention. That is noise for a campaign point, a scenario replica or an
// emulated execution batch (milliseconds each, chunks of one); a SAN
// replica is 5-15 µs, so its loops ask for chunks of many.
func (l *loop) runChunk(worker, c int) {
	k, i := c*l.chunk, 0 // position, and the unit there
	h := obs.UnitStart()
	defer func() {
		obs.UnitEnd(h)
		if r := recover(); r != nil {
			// An already-wrapped panic — from a loop the index opened —
			// passes through, so the innermost index and stack survive.
			up, wrapped := r.(*UnitPanic)
			if !wrapped {
				up = &UnitPanic{Index: i, Value: r, Stack: debug.Stack()}
			}
			l.finish(func() {
				if l.panicked == nil {
					l.panicked = up
				}
			})
		}
	}()
	for end := min(k+l.chunk, l.n); k < end; k++ {
		if i = k; l.order != nil {
			i = l.order[k]
		}
		if l.ctx.Err() != nil {
			l.finish(func() { l.cut = true })
			return
		}
		if err := l.fn(worker, i); err != nil {
			l.finish(func() {
				if l.err == nil || k < l.errPos {
					l.errPos, l.err = k, err
				}
			})
			return
		}
	}
}

// finish records why the loop ends early and stops further draws.
func (l *loop) finish(record func()) {
	l.mu.Lock()
	record()
	l.mu.Unlock()
	l.stop.Store(true)
}

// outcome reports the loop's result on the goroutine that opened it, once
// every worker has left drain: a panic is re-raised, else the error of the
// lowest failing position wins, else a cancellation that cost an index is
// ctx.Err(). A loop whose every index ran is a success even if ctx was
// canceled meanwhile — the result set is whole.
func (l *loop) outcome() error {
	switch {
	case l.panicked != nil:
		panic(l.panicked)
	case l.err != nil:
		return l.err
	case l.cut:
		return l.ctx.Err()
	}
	return nil
}

// Pool is a fixed set of workers, numbered 0..Workers()-1, sharing one
// budget between a top-level loop and the loops its units open. A worker
// draws top-level units first, in the loop's start order; once none is
// left to start it does not idle while other workers are still inside
// theirs: it joins the nested loops they have open (ForEachChunk) until
// the last top-level unit has finished. So the wall time of a run tracks
// total work / width whenever its last units are divisible — which a
// start order can arrange: indivisible units first, longest first, the
// divisible ones after — with no split of the budget decided up front.
//
// One worker index serves both levels: two fn calls with the same worker
// value never overlap, whichever loops they belong to, so per-worker
// scratch state stays lock-free. A pool runs one top-level loop at a time.
type Pool struct {
	width int

	mu   sync.Mutex
	wake sync.Cond // a loop opened, emptied of helpers, or the last top-level unit ended
	open []*loop   // nested loops whose opener is still inside, oldest first
	top  int       // workers still drawing top-level units
}

// NewPool returns a pool of Workers(workers) workers. It holds no
// goroutines between loops.
func NewPool(workers int) *Pool {
	p := &Pool{width: Workers(workers)}
	p.wake.L = &p.mu
	return p
}

// Workers is the pool's width: worker indices are below it.
func (p *Pool) Workers() int { return p.width }

// run executes l as the pool's top-level loop and returns its outcome. A
// pool of one runs it inline on the calling goroutine as worker 0 — the
// reference serial path every schedule must be indistinguishable from;
// otherwise no goroutine outlives the call.
func (p *Pool) run(l *loop) error {
	if p.width == 1 {
		l.drain(0)
		return l.outcome()
	}
	p.top = p.width
	var wg sync.WaitGroup
	wg.Add(p.width)
	for w := range p.width {
		go func() {
			defer wg.Done()
			l.drain(w)
			p.help(w)
		}()
	}
	wg.Wait()
	return l.outcome()
}

// help is what a worker does once no top-level unit is left for it: draw
// from the open nested loops, oldest first, parking while there is
// nothing to draw, until no worker is inside a top-level unit any more.
// Every way a top-level unit can end — done, error, panic, cancellation —
// ends its worker's drain, so the last one out wakes whoever is parked.
func (p *Pool) help(worker int) {
	p.mu.Lock()
	if p.top--; p.top == 0 {
		p.wake.Broadcast()
	}
	for p.top > 0 {
		l := p.drawable()
		if l == nil {
			p.wake.Wait()
			continue
		}
		l.helpers++
		p.mu.Unlock()
		l.drain(worker)
		p.mu.Lock()
		if l.helpers--; l.helpers == 0 {
			p.wake.Broadcast() // its opener may be waiting to return
		}
	}
	p.mu.Unlock()
}

// drawable returns the oldest open loop with a chunk left to start.
func (p *Pool) drawable() *loop {
	for _, l := range p.open {
		if !l.stop.Load() && int(l.next.Load()) < l.chunks {
			return l
		}
	}
	return nil
}

// ForEachChunk runs fn(w, i) for every i in [0, n) as a loop nested in the
// unit the caller is running as pool worker `worker`: the caller draws
// chunks itself, workers with no top-level unit left join it under their
// own indices, and the call returns when every chunk — the helpers'
// included — is done. Chunks are sized from the pool's width (see
// newLoop), so the only unit of a one-unit run still spreads over every
// worker. Everything the package-level ForEachChunk states about order
// within a chunk, ctx, errors and panics holds here; a panic on a helper
// is re-raised on the caller's goroutine.
func (p *Pool) ForEachChunk(ctx context.Context, worker, n, maxChunk int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	l := newLoop(ctx, p.width, n, maxChunk, fn)
	shared := p.width > 1 && l.chunks > 1
	if shared {
		p.mu.Lock()
		p.open = append(p.open, l)
		p.wake.Broadcast()
		p.mu.Unlock()
	}
	l.drain(worker)
	if shared {
		p.mu.Lock()
		p.open = slices.DeleteFunc(p.open, func(o *loop) bool { return o == l })
		for l.helpers > 0 {
			p.wake.Wait()
		}
		p.mu.Unlock()
	}
	return l.outcome()
}

// Do runs fn as the only top-level unit of a new pool of Workers(workers):
// the loops fn opens on p spread over all of them. It is how a study that
// is all one divisible unit — a transient solve, a scenario campaign —
// runs standalone on the code path it takes inside a larger run.
func Do[T any](ctx context.Context, workers int, fn func(p *Pool, worker int) (T, error)) (T, error) {
	p := NewPool(workers)
	var out T
	err := p.forEach(ctx, 1, func(w, _ int) (err error) {
		out, err = fn(p, w)
		return err
	})
	return out, err
}

// ForEach runs fn(worker, i) for every i in [0, n) on a pool of its own:
// at most Workers(workers) goroutines drawing indices through an atomic
// counter. Two calls with the same worker value never overlap — on a Pool
// that spans its nested loops too — so callers may keep per-worker scratch
// state (a reusable simulator, a buffer) in a slice indexed by worker
// without locking.
//
// When the resolved worker count is 1 — or n < 2 — everything runs inline
// on the calling goroutine with worker == 0; this is the reference serial
// path the parallel schedule must be indistinguishable from.
//
// ctx is checked before every index: once it is canceled no new unit
// starts, in-flight units finish, and ForEach returns ctx.Err() (unless a
// unit already failed — fn errors take precedence, and the error observed
// for the lowest index is returned). A panic in fn is re-raised on the
// calling goroutine, wrapped as *UnitPanic so the failing unit's index and
// original stack survive the goroutine hop.
func ForEach(ctx context.Context, workers, n int, fn func(worker, i int) error) error {
	return ForEachChunk(ctx, workers, n, 1, fn)
}

// ForEachChunk is ForEach for units of microseconds: the pool's work unit
// is a contiguous chunk of at most maxChunk indices (see newLoop) — the
// caller's statement of how many of its units make the per-unit accounting
// negligible — and fn still runs once per index, in index order within a
// chunk. The bracket (see runChunk) and the shared work counter are paid
// once per chunk; ctx is still checked before every index, a panic is
// still reported with the index whose fn panicked, and an error still
// stops the run at that index. Everything ForEach guarantees about worker
// slots, the serial path, error precedence and cancellation holds as
// stated there.
func ForEachChunk(ctx context.Context, workers, n, maxChunk int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil // vacuously complete, like a run whose units all finished
	}
	w := Workers(workers)
	l := newLoop(ctx, w, n, maxChunk, fn)
	// fn cannot reach this pool to nest in it, so workers beyond the
	// chunk count would only park.
	return NewPool(min(w, l.chunks)).run(l)
}

// forEach is ForEach as p's top-level loop.
func (p *Pool) forEach(ctx context.Context, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	return p.run(newLoop(ctx, p.width, n, 1, fn))
}

// collect adapts a Map body to a loop body storing into out.
func collect[T any](out []T, fn func(worker, i int) (T, error)) func(worker, i int) error {
	return func(w, i int) error {
		v, err := fn(w, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	}
}

// Map runs fn for every index and collects the results in index order, so
// the returned slice is identical for any worker count. On error (or
// cancellation) the partial results are discarded and the lowest-index
// error — or ctx.Err() — is returned.
func Map[T any](ctx context.Context, workers, n int, fn func(worker, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if err := ForEach(ctx, workers, n, collect(out, fn)); err != nil {
		return nil, err
	}
	return out, nil
}

// ordered adapts a Stream body and its emit to a loop body: each result is
// buffered until the contiguous prefix before it is complete.
func ordered[T any](n int, fn func(worker, i int) (T, error), emit func(i int, v T) error) func(worker, i int) error {
	var (
		mu       sync.Mutex
		buf      = make([]T, n)
		ready    = make([]bool, n)
		nextOut  int
		emitDead bool // a previous emit failed; never emit again
	)
	return func(w, i int) error {
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
	}
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
	return ForEach(ctx, workers, n, ordered(n, fn, emit))
}

// StreamOn is Stream as p's top-level loop, over units 0..len(order)-1
// started in the given order — a permutation of them: the unit at start
// position k is order[k]. fn may open nested loops on p under the worker
// index it is passed. Emission is still in index order, so the start
// order moves when a result reaches emit, never which result, its content
// or its place; a run that fails reports the error of the lowest failing
// start position, so the error too depends only on the order, not on the
// width.
func StreamOn[T any](ctx context.Context, p *Pool, order []int, fn func(worker, i int) (T, error), emit func(i int, v T) error) error {
	n := len(order)
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("parallel: start order is not a permutation of 0..%d", n-1)
		}
		seen[i] = true
	}
	if n == 0 {
		return nil
	}
	l := newLoop(ctx, p.width, n, 1, ordered(n, fn, emit))
	l.order = order
	return p.run(l)
}
