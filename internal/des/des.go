// Package des is a minimal discrete-event simulation kernel: a virtual
// clock and a cancellable event queue. Both the cluster emulator
// (internal/netsim) and the SAN solver (internal/san) are built on it.
//
// Time is a float64 number of milliseconds, matching the unit used
// throughout the paper. Events scheduled at equal times fire in FIFO order
// of scheduling, which keeps simulations deterministic.
//
// The queue is a calendar queue (Brown 1988): a ring of time buckets,
// each holding a small (time, seq)-sorted run of entries. Scheduling
// drops an entry into its bucket (amortized O(1): buckets hold a couple
// of entries each), and popping takes the head of the first bucket that
// owns the current time slot — no per-event heap sift, which was the top
// CPU consumer of the campaign benchmark under both container/heap and
// the hand-rolled 4-ary heap that preceded this (see PERFORMANCE.md).
// The bucket width adapts to the observed event density, so the same
// kernel serves the sub-millisecond message traffic of the emulator and
// the arbitrary time scales of the SAN solver. Cancellation is eager:
// the event record remembers its home bucket, so Cancel removes the
// entry with a short in-bucket scan. Unlike lazy cancellation (a heap's
// only option short of sift-removal), this keeps every queued entry
// live — the pop path never touches scattered event records to test for
// staleness, which is exactly the cache miss the calendar was adopted
// to avoid.
//
// The (time, seq) order is strict and total — equal times always share a
// bucket, where entries are kept sorted — so the sequence of *live*
// events executed, and therefore every simulation result, is
// bit-identical to the heap implementations this replaces. Bucket
// geometry (width, ring size) only ever changes internal layout, never
// the surfacing order.
//
// Event records are pooled on a per-Sim free list: once the pool is warm,
// scheduling and firing events performs no heap allocation, which matters
// for the Monte-Carlo campaigns that execute hundreds of millions of
// events. Handles carry a generation number so that a handle to a fired or
// cancelled event stays invalid even after its record is recycled.
package des

import (
	"ctsan/internal/trace"
)

// event is a scheduled callback record. Records are recycled through the
// owning Sim's free list; gen disambiguates incarnations. vb is the
// virtual bucket the record's queue entry currently lives in (maintained
// by insert, so rebucketing keeps it accurate) — it lets Cancel walk
// straight to the entry and remove it.
type event struct {
	fn  func()
	gen uint64 // incremented on every recycle
	vb  int64
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

// entry is one queued event: the ordering key, the home virtual bucket
// (cached at insertion so scans compare integers, not recomputed floats),
// and the event record. Every queued entry is live — Cancel removes
// entries eagerly.
type entry struct {
	time float64
	seq  uint64
	vb   int64 // virtual bucket: floor(time / width) at insertion
	ev   *event
}

// before is the strict total event order: time, then FIFO by seq.
func (e *entry) before(o *entry) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// Calendar geometry and adaptation constants. The ring starts small and
// doubles whenever occupancy exceeds two entries per bucket; the width
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
	now float64
	seq uint64
	// live counts queued entries (cancellation is eager, so every queued
	// entry is live).
	live   int
	free   []*event // recycled event records
	nsteps uint64
	tr     *trace.Tracer

	// Calendar queue state. buckets is a power-of-two ring; an entry with
	// virtual bucket vb lives in buckets[vb&mask], sorted by (time, seq).
	// curVB is the scan cursor: every queued entry has vb >= curVB.
	buckets  [][]entry
	mask     int64
	width    float64
	invWidth float64
	curVB    int64
	scratch  []entry // rebucket staging buffer

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
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	return &event{}
}

// release retires an event record to the free list, invalidating every
// outstanding Handle to it by bumping the generation.
func (s *Sim) release(ev *event) {
	ev.fn = nil
	ev.gen++
	s.free = append(s.free, ev)
}

// push files an entry into the calendar, growing the ring when occupancy
// exceeds two entries per bucket.
func (s *Sim) push(e entry) {
	if len(s.buckets) == 0 {
		s.buckets = make([][]entry, initialBuckets)
		s.mask = initialBuckets - 1
		s.width, s.invWidth = 1, 1
	}
	s.insert(e)
	s.live++
	if s.live >= 2*len(s.buckets) {
		s.rebucket(2*len(s.buckets), s.width)
	}
}

// maxVB caps virtual-bucket indices so an extreme event time (or a tiny
// adapted width) cannot overflow the float64→int64 conversion, which
// would yield a negative index and break both the curVB invariant and
// locate's best >= 0 fallback. Clamped entries all share one bucket,
// where the (time, seq) sort keeps them correctly ordered.
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

// insert places e into its bucket, keeping the bucket sorted by
// (time, seq). Buckets hold a handful of entries, so the insertion scan
// is short; a new entry usually belongs at the back of its bucket.
func (s *Sim) insert(e entry) {
	e.vb = s.vbucket(e.time)
	e.ev.vb = e.vb
	b := &s.buckets[int(e.vb&s.mask)]
	bb := append(*b, e)
	i := len(bb) - 1
	for i > 0 && e.before(&bb[i-1]) {
		bb[i] = bb[i-1]
		i--
	}
	bb[i] = e
	*b = bb
}

// remove deletes the entry owned by ev from its home bucket, preserving
// bucket order. The scan is short: buckets hold a couple of entries.
func (s *Sim) remove(ev *event) {
	b := &s.buckets[int(ev.vb&s.mask)]
	bb := *b
	for i := range bb {
		if bb[i].ev == ev {
			n := copy(bb[i:], bb[i+1:]) + i
			bb[n] = entry{} // drop the ev pointer so the pool is not pinned
			*b = bb[:n]
			s.live--
			return
		}
	}
	panic("des: cancelled event not found in its home bucket")
}

// locate finds the bucket holding the earliest queued entry. Entries
// within a bucket are sorted and equal times always map to the same
// bucket, so the first bucket that owns its current time slot holds the
// global minimum; if a whole rotation owns nothing (every entry is at
// least a ring-span ahead), the earliest bucket head is the global
// minimum. locate never moves curVB — Step advances it only when an
// entry is actually consumed.
func (s *Sim) locate() (int64, bool) {
	if s.live == 0 {
		return 0, false
	}
	n := int64(len(s.buckets))
	for k := int64(0); k < n; k++ {
		i := s.curVB + k
		if bb := s.buckets[int(i&s.mask)]; len(bb) > 0 && bb[0].vb == i {
			return i, true
		}
	}
	best := int64(-1)
	var bt float64
	var bs uint64
	for i := range s.buckets {
		bb := s.buckets[i]
		if len(bb) == 0 {
			continue
		}
		if best < 0 || bb[0].time < bt || (bb[0].time == bt && bb[0].seq < bs) {
			best, bt, bs = bb[0].vb, bb[0].time, bb[0].seq
		}
	}
	return best, best >= 0
}

// rebucket refiles every live entry under a new ring size and/or bucket
// width. The surfacing order of live events is a function of (time, seq)
// alone, so rebucketing never affects simulation results.
func (s *Sim) rebucket(nb int, width float64) {
	s.scratch = s.scratch[:0]
	for i := range s.buckets {
		bb := s.buckets[i]
		for j := range bb {
			s.scratch = append(s.scratch, bb[j])
			bb[j] = entry{}
		}
		s.buckets[i] = bb[:0]
	}
	if nb > len(s.buckets) {
		s.buckets = make([][]entry, nb)
		s.mask = int64(nb - 1)
	}
	s.width, s.invWidth = width, 1/width
	// A width change redefines the virtual-bucket units, so the scan
	// cursor must be rebased too: every live entry has time >= now, so
	// vbucket(now) restores the vb >= curVB invariant. Leaving the old
	// cursor in place after a width increase would let locate's fast path
	// exact-match a far-future entry whose shrunken vb lands inside
	// [curVB, curVB+ring) and fire it early.
	s.curVB = s.vbucket(s.now)
	for _, e := range s.scratch {
		s.insert(e)
	}
	clear(s.scratch)
	s.scratch = s.scratch[:0]
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

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a model bug.
func (s *Sim) At(t float64, fn func()) Handle {
	if t < s.now {
		panic("des: scheduling event in the past")
	}
	ev := s.alloc()
	ev.fn = fn
	s.push(entry{time: t, seq: s.seq, ev: ev})
	s.seq++
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
// fired or cancelled event is a no-op. The entry is removed from its
// home bucket on the spot (a short in-bucket scan), so workloads that
// cancel far more events than they fire — the heartbeat failure detector
// re-arms a timer on every observed message — never accumulate dead
// entries for the pop path to skip over.
func (s *Sim) Cancel(h Handle) {
	if !h.Valid() {
		return
	}
	s.remove(h.ev)
	s.release(h.ev)
}

// Empty reports whether no live events remain.
func (s *Sim) Empty() bool { return s.live == 0 }

// PeekTime returns the time of the next event, or ok=false if none.
func (s *Sim) PeekTime() (t float64, ok bool) {
	vb, found := s.locate()
	if !found {
		return 0, false
	}
	return s.buckets[int(vb&s.mask)][0].time, true
}

// Step executes the next event. It reports whether an event was executed.
func (s *Sim) Step() bool {
	vb, found := s.locate()
	if !found {
		return false
	}
	s.curVB = vb
	b := &s.buckets[int(vb&s.mask)]
	bb := *b
	e := bb[0]
	n := copy(bb, bb[1:])
	bb[n] = entry{}
	*b = bb[:n]
	s.now = e.time
	s.nsteps++
	s.live--
	// Feed the width adaptation: mean positive gap between fired events.
	if e.time > s.popLastT {
		s.gapSum += e.time - s.popLastT
		s.gapN++
	}
	s.popLastT = e.time
	if s.sincePop++; s.sincePop >= rewidthPeriod {
		s.maybeRewidth()
	}
	if s.tr != nil {
		s.tr.Emit(trace.Event{T: s.now, Kind: trace.KindFire})
	}
	fn := e.ev.fn
	// Release before running so fn can immediately reuse the record; the
	// handle to this event is already stale either way.
	s.release(e.ev)
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
	for {
		t, ok := s.PeekTime()
		if !ok || t > tmax {
			break
		}
		s.Step()
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
// The queue is drained by its live entries: every one of them has
// vb >= curVB, so the walk starts at the cursor and ends with the last
// entry found — at once when nothing is queued — instead of visiting
// every bucket of the ring.
func (s *Sim) Reset() {
	for vb := s.curVB; s.live > 0; vb++ {
		b := &s.buckets[int(vb&s.mask)]
		bb := *b
		for j := range bb {
			s.release(bb[j].ev)
			bb[j] = entry{}
		}
		s.live -= len(bb)
		*b = bb[:0]
	}
	s.curVB = 0
	s.now, s.seq, s.nsteps = 0, 0, 0
	s.popLastT, s.gapSum, s.gapN, s.sincePop = 0, 0, 0, 0
	s.tr = nil
}
