// Package des is a minimal discrete-event simulation kernel: a virtual
// clock and a cancellable event queue. Both the cluster emulator
// (internal/netsim) and the SAN solver (internal/san) are built on it.
//
// Time is a float64 number of milliseconds, matching the unit used
// throughout the paper. Events scheduled at equal times fire in FIFO order
// of scheduling, which keeps simulations deterministic.
//
// The queue is a calendar queue (Brown 1988): a ring of time buckets,
// each a (time, seq)-sorted singly linked list of the pooled event
// records themselves — the record is the queue node. Scheduling links
// the record behind its bucket's tail (one comparison; a walk from the
// head only when it belongs earlier), popping unlinks the head of the
// first bucket that owns the current time slot, and a retired record
// joins a free list threaded through the same link — no per-event heap
// sift, which was the top CPU consumer of the campaign benchmark under
// both container/heap and the hand-rolled 4-ary heap that preceded the
// calendar, and no memory moved to keep a bucket sorted (see
// PERFORMANCE.md). The bucket width adapts to the observed event
// density, so the same kernel serves the sub-millisecond message traffic
// of the emulator and the arbitrary time scales of the SAN solver.
// Cancellation is eager: the record remembers its home bucket, so Cancel
// unlinks it with a short walk of that bucket and no dead node is ever
// left for the pop path to skip.
//
// Finding the next event reads the head record of every bucket it
// passes, a pointer load that buckets of inline keys would not pay. It
// is cheap at the sizes this repository runs — 30 to 60 live events on
// the emulation workloads, a bucket holding about one, the whole pool
// resident in L1 (measured at PR 24) — and the first thing to re-measure
// if a model ever keeps tens of thousands of events queued.
//
// The (time, seq) order is strict and total — equal times always share a
// bucket, whose list is kept sorted — so the sequence of events executed,
// and therefore every simulation result, is bit-identical to the heap
// implementations this replaces. Bucket geometry (width, ring size) only
// ever changes internal layout, never the surfacing order.
//
// Once the pool is warm, scheduling and firing events performs no heap
// allocation, which matters for the Monte-Carlo campaigns that execute
// hundreds of millions of events. Handles carry a generation number so
// that a handle to a fired or cancelled event stays invalid even after
// its record is recycled.
package des

import (
	"math"

	"ctsan/internal/trace"
)

// event is a scheduled callback and its own queue node. While queued,
// (time, seq) is its ordering key, vb its home virtual bucket (cached by
// insert so scans compare integers and Cancel can walk straight to it)
// and next the following record of that bucket's list; once retired, next
// threads the owning Sim's free list. gen disambiguates incarnations.
type event struct {
	time float64
	seq  uint64
	vb   int64 // virtual bucket: floor(time / width) at insertion
	next *event
	fn   func()
	gen  uint64 // incremented on every recycle
}

// before is the strict total event order: time, then FIFO by seq.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// bucket is one (time, seq)-sorted list of queued records. It is empty
// when head is nil; tail is meaningful only while it is not, which lets
// a pop leave it alone.
type bucket struct {
	head, tail *event
}

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is invalid. A Handle refers to one incarnation of a (pooled)
// event record: once the event fires or is cancelled, the handle goes
// stale and all operations on it are no-ops.
type Handle struct {
	ev  *event
	gen uint64
}

// Valid reports whether the handle refers to a scheduled (not yet fired,
// not cancelled) event. Firing and cancelling both retire the record with
// a new generation, so a matching generation implies the event is queued.
func (h Handle) Valid() bool {
	return h.ev != nil && h.gen == h.ev.gen
}

// Calendar geometry and adaptation constants. The ring starts small and
// doubles whenever occupancy exceeds two events per bucket; the width
// re-adapts at most once per rewidthPeriod fired events, and only when
// the observed inter-event gap has drifted a factor of two from the
// current bucket width.
const (
	initialBuckets = 128
	rewidthPeriod  = 4096
	minGapSamples  = 64
)

// Sim is a discrete-event simulator. The zero value is ready to use.
// Sim is not safe for concurrent use.
type Sim struct {
	now    float64
	seq    uint64
	live   int    // queued events; cancellation is eager, so none of them is dead
	free   *event // recycled records, linked through next
	nsteps uint64
	tr     *trace.Tracer

	// Calendar queue state. buckets is a power-of-two ring; an event with
	// virtual bucket vb is linked into buckets[vb&mask]. curVB is the
	// scan cursor: every queued event has vb >= curVB.
	buckets  []bucket
	mask     int64
	width    float64
	invWidth float64
	curVB    int64

	// Width adaptation: mean positive gap between consecutive fired-event
	// times over the current observation window.
	popLastT float64
	gapSum   float64
	gapN     int
	sincePop int
}

// SetTracer attaches (or with nil detaches) an execution tracer. Every
// schedule and fire emits one record; a nil tracer costs a single branch
// per site.
func (s *Sim) SetTracer(tr *trace.Tracer) { s.tr = tr }

// Now returns the current virtual time in milliseconds.
func (s *Sim) Now() float64 { return s.now }

// Steps returns the number of events executed so far.
func (s *Sim) Steps() uint64 { return s.nsteps }

// alloc takes an event record off the free list, or allocates one.
func (s *Sim) alloc() *event {
	ev := s.free
	if ev == nil {
		return &event{}
	}
	s.free = ev.next
	return ev
}

// release retires an unlinked event record to the free list, invalidating
// every outstanding Handle to it by bumping the generation.
func (s *Sim) release(ev *event) {
	ev.fn = nil
	ev.gen++
	ev.next = s.free
	s.free = ev
}

// maxVB caps virtual-bucket indices so an extreme event time (or a tiny
// adapted width) cannot overflow the float64→int64 conversion, which
// would yield a negative index and break the vb >= curVB invariant.
// Clamped events all share one bucket, where the (time, seq) sort keeps
// them correctly ordered.
const maxVB = int64(1) << 62

// vbucket maps an event time to its virtual bucket under the current
// width, clamped to maxVB.
func (s *Sim) vbucket(t float64) int64 {
	v := t * s.invWidth
	if v >= float64(maxVB) {
		return maxVB
	}
	return int64(v)
}

// insert links ev into its bucket, keeping the list sorted by
// (time, seq). A new event almost always belongs behind the tail — a
// bucket holds about one event, and ties fire in scheduling order — so
// the walk from the head is the rare path, and it ends before the tail.
func (s *Sim) insert(ev *event) {
	ev.vb = s.vbucket(ev.time)
	b := &s.buckets[int(ev.vb&s.mask)]
	switch {
	case b.head == nil:
		b.head = ev
	case !ev.before(b.tail):
		b.tail.next = ev
	default:
		at := &b.head
		for !ev.before(*at) {
			at = &(*at).next
		}
		ev.next, *at = *at, ev
		return
	}
	ev.next, b.tail = nil, ev
}

// remove unlinks ev from its home bucket. The walk is short: buckets
// hold a couple of events.
func (s *Sim) remove(ev *event) {
	b := &s.buckets[int(ev.vb&s.mask)]
	var prev *event
	at := &b.head
	for *at != ev {
		if prev = *at; prev == nil {
			panic("des: cancelled event not found in its home bucket")
		}
		at = &prev.next
	}
	if *at = ev.next; ev.next == nil {
		b.tail = prev
	}
	s.live--
}

// locate finds the earliest queued event, or nil if there is none.
// A bucket's list is sorted and equal times always map to the same
// bucket, so the first bucket that owns its current time slot holds the
// global minimum at its head; if a whole rotation owns nothing (every
// event is at least a ring-span ahead), the earliest bucket head is the
// global minimum. locate never moves curVB — StepUntil advances it only
// when an event is actually consumed.
func (s *Sim) locate() *event {
	if s.live == 0 {
		return nil
	}
	n := int64(len(s.buckets))
	for k := int64(0); k < n; k++ {
		i := s.curVB + k
		if h := s.buckets[int(i&s.mask)].head; h != nil && h.vb == i {
			return h
		}
	}
	var best *event
	for i := range s.buckets {
		if h := s.buckets[i].head; h != nil && (best == nil || h.before(best)) {
			best = h
		}
	}
	return best
}

// rebucket refiles every queued event under a new ring size and/or bucket
// width. The surfacing order of events is a function of (time, seq)
// alone, so rebucketing never affects simulation results.
func (s *Sim) rebucket(nb int, width float64) {
	// Chain the bucket lists together, last ring slot first, so the
	// chain runs in ring order and each stretch of it is already sorted:
	// refiling then mostly links behind a tail.
	var chain *event
	for i := len(s.buckets) - 1; i >= 0; i-- {
		if b := &s.buckets[i]; b.head != nil {
			b.tail.next = chain
			chain, b.head = b.head, nil
		}
	}
	if nb > len(s.buckets) {
		s.buckets = make([]bucket, nb)
		s.mask = int64(nb - 1)
	}
	s.width, s.invWidth = width, 1/width
	// A width change redefines the virtual-bucket units, so the scan
	// cursor must be rebased too: every queued event has time >= now, so
	// vbucket(now) restores the vb >= curVB invariant. Leaving the old
	// cursor in place after a width increase would let locate's fast path
	// exact-match a far-future event whose shrunken vb lands inside
	// [curVB, curVB+ring) and fire it early.
	s.curVB = s.vbucket(s.now)
	for chain != nil {
		ev := chain
		chain = ev.next
		s.insert(ev)
	}
}

// maybeRewidth re-adapts the bucket width to the mean positive gap
// between consecutive fired-event times, when it has drifted a factor of
// two from the current width. Called once per rewidthPeriod fired events.
func (s *Sim) maybeRewidth() {
	s.sincePop = 0
	gs, gn := s.gapSum, s.gapN
	s.gapSum, s.gapN = 0, 0
	if gn < minGapSamples {
		return
	}
	target := 2 * gs / float64(gn)
	if target < 1e-9 {
		target = 1e-9
	}
	if target >= s.width*0.5 && target <= s.width*2 {
		return
	}
	s.rebucket(len(s.buckets), target)
}

// At schedules fn to run at absolute time t. Scheduling in the past, or
// at a NaN time (which no bucket would ever surface), panics: it always
// indicates a model bug.
func (s *Sim) At(t float64, fn func()) Handle {
	if !(t >= s.now) {
		panic("des: scheduling event in the past or at NaN")
	}
	if len(s.buckets) == 0 {
		s.buckets = make([]bucket, initialBuckets)
		s.mask = initialBuckets - 1
		s.width, s.invWidth = 1, 1
	}
	ev := s.alloc()
	ev.time, ev.seq, ev.fn = t, s.seq, fn
	s.seq++
	s.insert(ev)
	if s.live++; s.live >= 2*len(s.buckets) {
		s.rebucket(2*len(s.buckets), s.width)
	}
	if s.tr != nil {
		s.tr.Emit(trace.Event{T: s.now, Kind: trace.KindSchedule, X: t})
	}
	return Handle{ev: ev, gen: ev.gen}
}

// After schedules fn to run d milliseconds from now.
func (s *Sim) After(d float64, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Cancel prevents a scheduled event from firing. Cancelling an already
// fired or cancelled event is a no-op. The record is unlinked from its
// home bucket on the spot (a short walk of that bucket), so workloads
// that cancel far more events than they fire — the heartbeat failure
// detector re-arms a timer on every observed message — never accumulate
// dead nodes for the pop path to skip over.
func (s *Sim) Cancel(h Handle) {
	if !h.Valid() {
		return
	}
	s.remove(h.ev)
	s.release(h.ev)
}

// Step executes the next event. It reports whether an event was executed.
func (s *Sim) Step() bool { return s.StepUntil(math.Inf(1)) }

// StepUntil executes the next event if its time is <= tmax, locating it
// once. It reports whether an event was executed; a later event stays
// queued and the clock does not move.
func (s *Sim) StepUntil(tmax float64) bool {
	ev := s.locate()
	if ev == nil || ev.time > tmax {
		return false
	}
	s.curVB = ev.vb
	s.buckets[int(ev.vb&s.mask)].head = ev.next
	s.now = ev.time
	s.nsteps++
	s.live--
	// Feed the width adaptation: mean positive gap between fired events.
	if ev.time > s.popLastT {
		s.gapSum += ev.time - s.popLastT
		s.gapN++
	}
	s.popLastT = ev.time
	if s.sincePop++; s.sincePop >= rewidthPeriod {
		s.maybeRewidth()
	}
	if s.tr != nil {
		s.tr.Emit(trace.Event{T: s.now, Kind: trace.KindFire})
	}
	fn := ev.fn
	// Release before running so fn can immediately reuse the record; the
	// handle to this event is already stale either way.
	s.release(ev)
	fn()
	return true
}

// Run executes events until the queue is empty or until stop returns true
// (checked after each event). A nil stop runs to exhaustion. It returns the
// final virtual time.
func (s *Sim) Run(stop func() bool) float64 {
	for s.Step() {
		if stop != nil && stop() {
			break
		}
	}
	return s.now
}

// RunUntil executes events with time <= tmax. Events beyond tmax remain
// queued; the clock is advanced to tmax if the run was truncated.
func (s *Sim) RunUntil(tmax float64) {
	for s.StepUntil(tmax) {
	}
	if s.now < tmax {
		s.now = tmax
	}
}

// Reset returns the simulator to its initial state — time zero, empty
// queue, zero counters, no tracer — retaining the event pool, the bucket
// storage, and the learned bucket width so a reused Sim schedules without
// allocating. Outstanding handles to pending events are invalidated.
// Detaching the tracer here keeps reset-then-run bit-identical to
// construct-then-run; callers that trace successive runs re-attach after
// Reset. (Bucket geometry carried over from the previous run is internal
// layout only — it cannot influence event order.)
//
// The queue is drained by its queued events: every one of them has
// vb >= curVB, so the walk starts at the cursor and ends with the last
// event found — at once when nothing is queued — instead of visiting
// every bucket of the ring.
func (s *Sim) Reset() {
	for vb := s.curVB; s.live > 0; vb++ {
		b := &s.buckets[int(vb&s.mask)]
		for ev := b.head; ev != nil; s.live-- {
			next := ev.next
			s.release(ev)
			ev = next
		}
		b.head = nil
	}
	s.curVB = 0
	s.now, s.seq, s.nsteps = 0, 0, 0
	s.popLastT, s.gapSum, s.gapN, s.sincePop = 0, 0, 0, 0
	s.tr = nil
}
