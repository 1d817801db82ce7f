package des

import (
	"math"
	"sort"
	"testing"

	"ctsan/internal/rng"
)

// The kernel against a reference, on operation sequences. A program is a
// byte string of 3-byte instructions (opcode, a, b) interpreted on a real
// Sim and, in lockstep, on a naive model: a (time, seq)-sorted slice. The
// model is consulted event by event — every callback pops the model's
// minimum and must be it — and after every instruction (Now, Empty,
// Steps, PeekTime, handle validity). TestQueueAgainstModel feeds it
// generated programs shaped to reach the kernel's rare paths;
// FuzzQueue feeds it anything.

const (
	opAfterDense   = iota // one event a/64 ms ahead (a = 0: a tie with now)
	opAfterSparse         // one event 3a ms ahead
	opAfterFar            // a far-future straggler; a >= 250: beyond maxVB
	opPile                // 64 + a%64 events at one instant, actions mixed in
	opBurst               // a+1 events 3 µs apart
	opCancelRecent        // cancel one of the last 128 handles issued
	opCancelAny           // cancel any handle ever issued: live, stale or fired
	opStep                // a%4 + 1 Steps
	opStepMany            // 16(a+1) Steps, each firing re-arming like the emulator's timers
	opRunUntil            // RunUntil(now + a/8)
	opRearmer             // an event whose callback schedules another
	opCanceller           // an event whose callback cancels some handle
	opReset               // Reset, then reuse the same Sim
	numOps
)

// action is what an event's callback does besides being checked.
type action struct {
	kind byte // actNone, actRearm, actCancel
	arg  byte
}

const (
	actNone = iota
	actRearm
	actCancel
)

type modelEvent struct {
	time float64
	seq  uint64
	id   int // index into interp.handles
}

type interp struct {
	t      testing.TB
	s      Sim
	budget int

	// The reference: queued events sorted by (time, seq), and the clock
	// and counters they imply.
	queue []modelEvent
	now   float64
	seq   uint64
	steps uint64
	limit float64 // no event later than this may fire (RunUntil's bound)

	handles []Handle
	acts    []action
	queued  []bool // handles[i] is scheduled, by the model's account
	probe   int    // rotating cursor of the per-instruction validity sample
	rearm   bool   // opStepMany: every fired event schedules a successor

	// What the programs reached, for TestQueueAgainstModel's coverage asserts.
	maxLive, maxPile, liveCancels, pileCancels int
	pileFrom, pileLen                          int // handle ids of the latest pile
	ringGrowths, widthUps, widthDowns, resets  int
}

// newInterp makes an interpreter that stops reading its program once
// budget events have been scheduled (opBurst, opPile and opStepMany
// amplify a 3-byte instruction a few hundred times).
func newInterp(t testing.TB, budget int) *interp {
	return &interp{t: t, budget: budget, limit: math.Inf(1)}
}

func (in *interp) schedule(d float64, act action) {
	id := len(in.handles)
	t := in.now + d
	in.acts = append(in.acts, act)
	in.queued = append(in.queued, true)
	fn := func() { in.fire(id) }
	var h Handle
	if id%2 == 0 {
		h = in.s.At(t, fn)
	} else {
		h = in.s.After(d, fn)
	}
	in.handles = append(in.handles, h)
	if !h.Valid() {
		in.t.Fatalf("handle %d invalid right after scheduling", id)
	}
	e := modelEvent{time: t, seq: in.seq, id: id}
	in.seq++
	at := sort.Search(len(in.queue), func(i int) bool { return in.queue[i].time > t })
	in.queue = append(in.queue, modelEvent{})
	copy(in.queue[at+1:], in.queue[at:])
	in.queue[at] = e
	in.maxLive = max(in.maxLive, len(in.queue))
}

// fire is every event's callback: the event running must be the model's
// minimum, at the model's time.
func (in *interp) fire(id int) {
	if len(in.queue) == 0 {
		in.t.Fatalf("event %d fired with the model empty", id)
	}
	want := in.queue[0]
	in.queue = in.queue[1:]
	if want.id != id || in.s.Now() != want.time {
		in.t.Fatalf("fired event %d at %v, model expects %d at %v", id, in.s.Now(), want.id, want.time)
	}
	if want.time > in.limit {
		in.t.Fatalf("event %d at %v fired past the bound %v", id, want.time, in.limit)
	}
	if in.handles[id].Valid() {
		in.t.Fatalf("handle %d still valid inside its own callback", id)
	}
	in.now = want.time
	in.steps++
	in.queued[id] = false
	act := in.acts[id]
	switch {
	case act.kind == actRearm:
		in.schedule(float64(act.arg)/32, action{})
	case act.kind == actCancel:
		in.cancel((id + 1 + int(act.arg)) % len(in.handles))
	case in.rearm:
		in.schedule(float64(id%97)/16, action{})
	}
}

func (in *interp) cancel(id int) {
	wasQueued := in.queued[id]
	if in.handles[id].Valid() != wasQueued {
		in.t.Fatalf("handle %d Valid() = %v, model says queued = %v", id, !wasQueued, wasQueued)
	}
	in.s.Cancel(in.handles[id])
	if in.handles[id].Valid() {
		in.t.Fatalf("handle %d valid after Cancel", id)
	}
	if !wasQueued {
		return
	}
	in.queued[id] = false
	in.liveCancels++
	if id >= in.pileFrom && id < in.pileFrom+in.pileLen {
		in.pileCancels++
	}
	for i := range in.queue {
		if in.queue[i].id == id {
			in.queue = append(in.queue[:i], in.queue[i+1:]...)
			return
		}
	}
	in.t.Fatalf("model lost queued event %d", id)
}

func (in *interp) step() {
	want := len(in.queue) > 0
	if got := in.s.Step(); got != want {
		in.t.Fatalf("Step() = %v with %d events in the model", got, len(in.queue))
	}
}

func (in *interp) exec(op, a, b byte) {
	switch op % numOps {
	case opAfterDense:
		in.schedule(float64(a)/64, action{})
	case opAfterSparse:
		in.schedule(3*float64(a), action{})
	case opAfterFar:
		d := 1e6 * float64(1+int(a))
		if a >= 250 {
			d = 1e19
		}
		in.schedule(d, action{})
	case opPile:
		k := 64 + int(a)%64
		d := 1 + float64(b%3)
		in.pileFrom = len(in.handles)
		for i := 0; i < k; i++ {
			act := action{}
			if i%8 == 3 {
				act = action{kind: actRearm + byte(i/8)%2, arg: b + byte(i)}
			}
			in.schedule(d, act)
		}
		in.pileLen = k
		in.maxPile = max(in.maxPile, k)
	case opBurst:
		for i := 0; i <= int(a); i++ {
			in.schedule(0.003*float64(i), action{})
		}
	case opCancelRecent:
		if n := len(in.handles); n > 0 {
			in.cancel(n - 1 - int(a)%min(n, 128))
		}
	case opCancelAny:
		if n := len(in.handles); n > 0 {
			in.cancel((int(a)<<8 | int(b)) % n)
		}
	case opStep:
		for i := 0; i <= int(a)%4; i++ {
			in.step()
		}
	case opStepMany:
		in.rearm = b%2 == 0
		for i := 0; i < 16*(int(a)+1); i++ {
			in.step()
		}
		in.rearm = false
	case opRunUntil:
		in.limit = in.now + float64(a)/8
		in.s.RunUntil(in.limit)
		if len(in.queue) > 0 && in.queue[0].time <= in.limit {
			in.t.Fatalf("RunUntil(%v) left an event at %v queued", in.limit, in.queue[0].time)
		}
		in.now = max(in.now, in.limit)
		in.limit = math.Inf(1)
	case opRearmer:
		in.schedule(float64(a)/64, action{kind: actRearm, arg: b})
	case opCanceller:
		in.schedule(float64(a)/64, action{kind: actCancel, arg: b})
	case opReset:
		in.s.Reset()
		for _, e := range in.queue {
			in.queued[e.id] = false
		}
		in.queue = in.queue[:0]
		in.now, in.seq, in.steps = 0, 0, 0
		in.resets++
		in.checkHandles(0, len(in.handles))
	}
}

// Empty reports whether no live events remain.
func (s *Sim) Empty() bool { return s.live == 0 }

// PeekTime returns the time of the next event, or ok=false if none.
func (s *Sim) PeekTime() (t float64, ok bool) {
	ev := s.locate()
	if ev == nil {
		return 0, false
	}
	return ev.time, true
}

// check compares everything the API shows with the model.
func (in *interp) check() {
	s := &in.s
	if s.Now() != in.now || s.Steps() != in.steps || s.Empty() != (len(in.queue) == 0) || s.live != len(in.queue) {
		in.t.Fatalf("Now %v Steps %d Empty %v live %d; model now %v steps %d queued %d",
			s.Now(), s.Steps(), s.Empty(), s.live, in.now, in.steps, len(in.queue))
	}
	pt, ok := s.PeekTime()
	if ok != (len(in.queue) > 0) || ok && pt != in.queue[0].time {
		in.t.Fatalf("PeekTime = %v, %v with model queue %d long", pt, ok, len(in.queue))
	}
	if n := len(in.handles); n > 0 {
		in.probe %= n
		to := min(in.probe+8, n)
		in.checkHandles(in.probe, to)
		in.probe = to
	}
}

func (in *interp) checkHandles(from, to int) {
	for id := from; id < to; id++ {
		if in.handles[id].Valid() != in.queued[id] {
			in.t.Fatalf("handle %d Valid() = %v, model says queued = %v", id, !in.queued[id], in.queued[id])
		}
	}
}

// checkStructure verifies the linked calendar itself: every bucket list
// sorted, filed under its own ring slot, not behind the cursor, ending at
// tail, and the lists together holding exactly the live events.
func (in *interp) checkStructure() {
	s := &in.s
	n := 0
	for i := range s.buckets {
		b := &s.buckets[i]
		var prev *event
		for ev := b.head; ev != nil; prev, ev = ev, ev.next {
			if int(ev.vb&s.mask) != i || ev.vb < s.curVB || ev.vb != s.vbucket(ev.time) {
				in.t.Fatalf("event at %v (vb %d) misfiled in slot %d, cursor %d", ev.time, ev.vb, i, s.curVB)
			}
			if prev != nil && !prev.before(ev) {
				in.t.Fatalf("slot %d out of order: (%v, %d) before (%v, %d)", i, prev.time, prev.seq, ev.time, ev.seq)
			}
			if n++; n > s.live {
				in.t.Fatalf("more than live = %d events linked (a cycle?)", s.live)
			}
		}
		if prev != nil && b.tail != prev {
			in.t.Fatalf("slot %d: tail is not the last event", i)
		}
	}
	if n != s.live {
		in.t.Fatalf("%d events linked, live = %d", n, s.live)
	}
}

// run interprets prog, then drains the queue under the same checks.
func (in *interp) run(prog []byte) {
	for pc := 0; pc+3 <= len(prog) && len(in.handles) < in.budget; pc += 3 {
		ring, width := len(in.s.buckets), in.s.width
		in.exec(prog[pc], prog[pc+1], prog[pc+2])
		in.check()
		if pc%(64*3) == 0 || len(in.s.buckets) != ring || in.s.width != width {
			in.checkStructure() // now and then, and whenever the geometry moved
		}
		if ring > 0 && len(in.s.buckets) > ring {
			in.ringGrowths++
		}
		if width > 0 && in.s.width > width {
			in.widthUps++
		} else if in.s.width < width {
			in.widthDowns++
		}
	}
	in.checkStructure()
	in.s.Run(nil)
	if len(in.queue) != 0 {
		in.t.Fatalf("Run(nil) returned with %d events in the model", len(in.queue))
	}
	in.check()
	in.checkStructure()
	in.checkHandles(0, len(in.handles))
}

// genProgram writes a program that walks the kernel through its regimes:
// random traffic, a sparse stretch long enough to widen the buckets, a
// dense burst onto ≥ 300 live events (two ring doublings) with piles of
// equal times cancelled into, enough dense firing to narrow the buckets
// again, far-future stragglers, and a Reset onto the same Sim. rounds
// scales its length.
func genProgram(seed uint64, rounds int) []byte {
	r := rng.New(seed)
	var prog []byte
	emit := func(op int, a, b int) { prog = append(prog, byte(op), byte(a), byte(b)) }
	byteOf := func() int { return int(r.Float64() * 256) }
	random := func(n int, ops ...int) {
		for i := 0; i < n; i++ {
			emit(ops[int(r.Float64()*float64(len(ops)))], byteOf(), byteOf())
		}
	}
	for round := 0; round < rounds; round++ {
		random(300, opAfterDense, opAfterDense, opAfterSparse, opPile, opCancelRecent, opCancelAny,
			opStep, opStep, opStep, opRunUntil, opRearmer, opCanceller, opAfterFar)
		// Sparse: a handful of events hundreds of ms apart, > rewidthPeriod fired.
		for i := 0; i < 5000; i++ {
			emit(opAfterSparse, 32+byteOf()/2, 0)
			emit(opStep, 0, 0)
		}
		// Dense after sparse: bursts onto a standing queue, piles, cancels inside them.
		emit(opBurst, 255, 0)
		emit(opBurst, 255, 0)
		for i := 0; i < 4; i++ {
			emit(opPile, byteOf(), byteOf())
			random(40, opCancelRecent)
			random(10, opCancelAny, opStep, opAfterDense)
		}
		emit(opBurst, 200, 0)
		emit(opAfterFar, 255, 0)
		emit(opAfterFar, byteOf()%250, 0)
		for i := 0; i < 24; i++ {
			emit(opStepMany, 15, 0) // re-arming: the live set stays up while 6k events fire
			random(6, opCancelRecent, opCancelAny, opAfterDense, opRunUntil)
		}
		random(100, opStep, opRunUntil, opCancelAny, opAfterDense)
		if round%2 == 0 {
			emit(opReset, 0, 0)
		} else {
			emit(opStepMany, 255, 1) // drain, stragglers included, and go on from a huge clock
		}
	}
	return prog
}

func TestQueueAgainstModel(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		in := newInterp(t, math.MaxInt)
		in.run(genProgram(seed, 3))
		if in.maxLive < 300 || in.ringGrowths < 2 {
			t.Errorf("seed %d: max live %d, ring grew %d times; want >= 300 live and two doublings", seed, in.maxLive, in.ringGrowths)
		}
		if in.widthUps == 0 || in.widthDowns == 0 {
			t.Errorf("seed %d: width went up %d and down %d times; want both", seed, in.widthUps, in.widthDowns)
		}
		if in.maxPile < 64 || in.pileCancels == 0 || in.liveCancels < 100 {
			t.Errorf("seed %d: largest pile %d, %d cancels inside a pile, %d live cancels", seed, in.maxPile, in.pileCancels, in.liveCancels)
		}
		if in.resets == 0 {
			t.Errorf("seed %d: the Sim was never Reset and reused", seed)
		}
	}
}

// FuzzQueue runs arbitrary programs through the interpreter; the seeds
// are a short generated program and one instruction of each kind.
func FuzzQueue(f *testing.F) {
	f.Add(genProgram(7, 1)[:3*400])
	var each []byte
	for op := 0; op < numOps; op++ {
		each = append(each, byte(op), byte(37*op), byte(op))
	}
	f.Add(each)
	f.Add([]byte{opBurst, 255, 0, opBurst, 255, 0, opPile, 63, 1, opCancelRecent, 9, 0, opStepMany, 40, 0, opReset, 0, 0, opBurst, 9, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		newInterp(t, 1<<13).run(prog)
	})
}
