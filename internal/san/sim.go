package san

import (
	"fmt"
	"math"
	"slices"

	"ctsan/internal/des"
	"ctsan/internal/rng"
)

// Sim executes one stochastic realization of a SAN model. Create it with
// NewSim, call Run, and Reset it to run the next replica on the same model.
// The same Model may back many Sims.
//
// NewSim compiles the net: the *Model the builder API produced —
// activities pointing at places pointing at names — is lowered once into
// flat tables. An activity becomes one record holding its kind, priority
// and FIFO-key place, its input arcs and the output arcs of each of its
// cases as place indices, and its gate functions side by side (every such
// list a range of one slice filled for the whole net); a place becomes its
// dependents and its watch list. Every step of a replica runs on those
// indices into the marking vector. The gate closures of the model —
// predicates, input and output functions, delay distributions — are
// called exactly as the model wrote them, with the live *Marking.
//
// Enabling is a pure function of the marking (gate predicates are
// side-effect free and read only their declared places). Two things are
// observable from outside: which instantaneous activity completes next,
// chosen from the enabled set by a total order (highest priority, then
// oldest FIFO arrival, then lowest creation index), and the order in which
// timed activities are armed and cancelled, because arming draws the delay
// from the replica's random stream. Any schedule of enabling evaluations
// that yields the same enabled set at each selection and the same timed
// arm/cancel sequence is therefore observably identical, and the
// bookkeeping below evaluates as little as that allows:
//
//   - An instantaneous activity with input arcs and no gates (every
//     resource seizer of the consensus model, about half of its
//     activities) is "watched": while disabled it waits on exactly one of
//     its currently empty input places and is looked at again only when
//     that place is marked; while enabled it is re-checked only when some
//     place is emptied. The invariant after every drain: a disabled
//     watched activity is on the watch list of an empty input place of
//     its own, an enabled one is in the enabled set. Releasing a resource
//     that hundreds of seizers share therefore touches only the seizers
//     that also have a queued token, not all of them.
//   - Gated instantaneous activities and all timed activities stay on the
//     place -> dependents index (default input arcs plus declared gate
//     Reads). Timed activities are left there deliberately: the index
//     fixes the order in which they are touched, hence armed, hence the
//     random draws — a cleverer schedule would have to reproduce that
//     order to keep every published number, and arming is not where the
//     time goes.
//
// A replica is paid for by the tokens it moved, Reset included: Reset
// writes the initial tokens back into the places the replica touched and
// propagates those writes the way a completion's are, instead of
// re-initialising per-place and per-activity tables.
//
// SetFullRescan ignores the bookkeeping and re-evaluates every activity
// after every completion: the reference the differential tests compare
// against.
type Sim struct {
	model   *Model
	marking Marking
	sim     des.Sim
	rand    *rng.Stream
	onFire  func(a *Activity, caseIdx int)
	fired   uint64

	// The compiled net. Every list an activity, a case or a place holds is
	// a range of one slice NewSim filled for all of them: the two the
	// replica loop walks several times per completion (act.in, place.deps)
	// as slices, the rest as spans of the slices below, which keeps the
	// records small.
	acts   []act
	places []place
	arcs   []int32             // ccase.out (and act.in)
	cases  []ccase             // act.cases
	gates  []gate              // act.gates
	outFns []func(mk *Marking) // ccase.fns
	timers []timer             // act.timer, one per timed activity

	// on is the set of enabled instantaneous activities, dense; act.onPos
	// is an activity's position in it plus one, 0 when absent.
	on []int32

	pending    []int32 // instantaneous activities to re-evaluate
	timedTouch []int32 // timed activities to (re)examine at the end of settle
	fresh      bool    // no settle has run since NewSim or Reset

	// armLog lists, each once (flagLogged), the timed activities armed
	// since the last Reset: the only ones that can still be.
	armLog []int32

	// initial lists the unwatched activities whose input arcs the initial
	// marking satisfies, computed once by NewSim and put back by Reset: the
	// ones the first settle must look at. Every other one is disabled
	// whatever its gates say, and is enqueued through deps as soon as one
	// of its places changes.
	initial struct {
		pending []int32 // gated instantaneous
		timed   []int32
	}

	fullRescan bool
	instLimit  int
}

// Activity kinds of the compiled net.
const (
	kindTimed   uint8 = iota
	kindWatched       // instantaneous, input arcs only: on the watch lists
	kindGated         // instantaneous with input gates: on the deps index
)

// Run-time flags of an activity.
const (
	flagArmed   uint8 = 1 << iota // timed: completion scheduled (timer.armed)
	flagPending                   // in Sim.pending
	flagTouch                     // in Sim.timedTouch
	flagLogged                    // in Sim.armLog
)

// act is one activity of the compiled net: the run-time state of the
// replica first, then what NewSim derived from the model.
type act struct {
	onPos int32 // position in Sim.on plus one, 0 when absent
	// next links the watch list this (disabled, watched) activity is on:
	// the next activity waiting on the same place, -1 at the end.
	next  int32
	flags uint8

	kind     uint8
	priority int32   // instantaneous only; higher completes first
	fifo     int32   // instantaneous only: FIFO-key place, -1 for none
	timer    int32   // timed only: index in Sim.timers
	in       []int32 // input-arc places
	cases    span    // in Sim.cases
	gates    span    // input gates, in Sim.gates
}

// span is a [lo,hi) range of one of the Sim's shared slices.
type span struct{ lo, hi int32 }

// gate is the run-time half of an InputGate.
type gate struct {
	enabled func(mk *Marking) bool
	fn      func(mk *Marking) // may be nil
}

// timer is what arming a timed activity needs.
type timer struct {
	armed des.Handle // meaningful with flagArmed
	delay DistFunc
	// fire is the completion closure, allocated once: arming must not
	// allocate in the steady state.
	fire func()
}

// ccase is one case of a compiled activity.
type ccase struct {
	acc float64 // cumulative probability up to and including this case
	out span    // output-arc places, in Sim.arcs
	fns span    // output-gate functions, in Sim.outFns
}

// place is the simulator's side of a place; its tokens are in the Marking.
type place struct {
	deps []int32 // dependent timed and gated activities
	// head is the first disabled watched activity waiting on this place
	// (-1 for none; the list continues through act.next).
	head int32
	// watched: some watched activity has an input arc here, so emptying
	// the place can disable an enabled one.
	watched bool
}

// NewSim compiles the model and prepares a simulation of it with the given
// random stream. It panics if the model fails Validate; validate
// explicitly for a recoverable error.
func NewSim(m *Model, r *rng.Stream) *Sim {
	root := m.rootModel()
	if err := root.Validate(); err != nil {
		panic(err)
	}
	nP, nA := len(root.places), len(root.activities)
	nTimed, nArcs, nCases, nGates, nFns := 0, 0, 0, 0, 0
	for _, a := range root.activities {
		if a.timed {
			nTimed++
		}
		nArcs += len(a.inputs)
		nCases += len(a.cases)
		nGates += len(a.gates)
		for _, c := range a.cases {
			nArcs += len(c.outputs)
			nFns += len(c.gates)
		}
	}
	s := &Sim{
		model:     root,
		acts:      make([]act, nA),
		places:    make([]place, nP),
		arcs:      make([]int32, 0, nArcs),
		cases:     make([]ccase, 0, nCases),
		gates:     make([]gate, 0, nGates),
		outFns:    make([]func(mk *Marking), 0, nFns),
		timers:    make([]timer, 0, nTimed),
		instLimit: 1_000_000,
	}
	mk := &s.marking
	*mk = Marking{
		m:       make([]int, nP),
		places:  root.places,
		initial: make([]int, nP),
		flags:   make([]uint8, nP),
		first:   make([]float64, nP),
		queue:   make([]int32, nP),
	}
	for _, p := range root.places {
		mk.m[p.idx] = p.initial
		mk.initial[p.idx] = p.initial
		mk.queue[p.idx] = -1
		s.places[p.idx].head = -1
	}
	// s.arcs is sized above and never regrown, so the slices cut from it
	// stay where they are.
	arcs := func(places []*Place) span {
		lo := int32(len(s.arcs))
		for _, p := range places {
			s.arcs = append(s.arcs, int32(p.idx))
		}
		return span{lo, int32(len(s.arcs))}
	}
	for _, src := range root.activities {
		ai := int32(src.idx)
		a := &s.acts[ai]
		*a = act{
			next: -1, fifo: -1,
			kind:     kindTimed,
			priority: int32(src.priority),
		}
		in := arcs(src.inputs)
		a.in = s.arcs[in.lo:in.hi:in.hi]
		a.gates.lo = int32(len(s.gates))
		for _, g := range src.gates {
			s.gates = append(s.gates, gate{g.Enabled, g.Fn})
		}
		a.gates.hi = int32(len(s.gates))
		switch {
		case src.timed:
			a.timer = int32(len(s.timers))
			s.timers = append(s.timers, timer{delay: src.delay, fire: func() { s.fire(ai) }})
		case len(src.gates) > 0:
			a.kind = kindGated
		default:
			a.kind = kindWatched
		}
		if q := src.fifoKey; q != nil {
			a.fifo = int32(q.idx)
			if mk.flags[q.idx]&placeKeyed == 0 {
				mk.flags[q.idx] |= placeKeyed
				mk.queue[q.idx] = int32(len(mk.more))
				mk.more = append(mk.more, make([]float64, max(q.initial-1, 0))) // all arrived at time zero
				mk.head = append(mk.head, 0)
			}
		}
		a.cases.lo = int32(len(s.cases))
		acc := 0.0
		for _, c := range src.cases {
			acc += c.p
			fns := span{lo: int32(len(s.outFns))}
			for _, g := range c.gates {
				s.outFns = append(s.outFns, g.Fn)
			}
			fns.hi = int32(len(s.outFns))
			s.cases = append(s.cases, ccase{acc: acc, out: arcs(c.outputs), fns: fns})
		}
		a.cases.hi = int32(len(s.cases))
		if a.kind == kindWatched {
			for _, p := range src.inputs {
				s.places[p.idx].watched = true
			}
		}
	}
	s.indexDeps()
	// Classify the activities against the initial marking.
	init := &s.initial
	for i := range s.acts {
		ai, a := int32(i), &s.acts[i]
		switch {
		case a.kind == kindWatched || s.emptyInput(a) >= 0:
		case a.kind == kindTimed:
			init.timed = append(init.timed, ai)
		default:
			init.pending = append(init.pending, ai)
		}
	}
	s.fileAll()
	s.Reset(r)
	return s
}

// fileAll files every watched activity from scratch under the current
// marking, and empties the enabled set of everything else.
func (s *Sim) fileAll() {
	for i := range s.places {
		s.places[i].head = -1
	}
	s.on = s.on[:0]
	for i := range s.acts {
		a := &s.acts[i]
		a.onPos = 0
		if a.kind == kindWatched {
			s.watch(int32(i), a)
		}
	}
}

// indexDeps fills place.deps: for every place, the timed and gated
// activities with an input arc on it or a gate reading it, each once, in
// creation order. Two passes over the same pairs — count, then fill — so
// the index is one allocation, not one per place.
func (s *Sim) indexDeps() {
	// stamp[p] == gen once p is recorded as a dependency of the activity
	// being visited.
	stamp, gen := make([]int32, len(s.places)), int32(0)
	eachDep := func(visit func(ai int32, pi int)) {
		for _, src := range s.model.activities {
			if s.acts[src.idx].kind == kindWatched {
				continue
			}
			gen++
			dep := func(p *Place) {
				if stamp[p.idx] != gen {
					stamp[p.idx] = gen
					visit(int32(src.idx), p.idx)
				}
			}
			for _, p := range src.inputs {
				dep(p)
			}
			for _, g := range src.gates {
				for _, p := range g.Reads {
					dep(p)
				}
			}
		}
	}
	end := make([]int32, len(s.places)) // end[p]: one past p's range, once both passes are done
	total := int32(0)
	eachDep(func(_ int32, pi int) { end[pi]++; total++ })
	lo := int32(0)
	for pi, n := range end { // end[p] = start of p's range, advanced by the fill
		end[pi], lo = lo, lo+n
	}
	index := make([]int32, total)
	eachDep(func(ai int32, pi int) { index[end[pi]] = ai; end[pi]++ })
	lo = 0
	for pi, hi := range end {
		s.places[pi].deps = index[lo:hi:hi]
		lo = hi
	}
}

// Reset returns the simulator to the model's initial marking with a fresh
// random stream, reusing every internal allocation (marking arrays, the
// compiled net, event pool). It is observably equivalent to
// NewSim(model, r) but allocation-free, evaluates no gate, and costs what
// the last replica touched, not what the model holds:
//
//   - the timed activities the replica armed are on a log and are marked
//     unarmed again; the completions still scheduled — a replica cut
//     short by Tmax or by its stop condition leaves some — go with the
//     event queue, which drains by its live entries (des.Sim.Reset);
//   - the places the replica wrote get their initial tokens back, and a
//     place marked again by that hands the watched activities waiting on
//     it on, exactly as a completion marking it would. The watch lists are
//     therefore not the ones NewSim built, but they satisfy the same
//     invariant for the same marking, which is all a run can observe;
//   - the unwatched activities the first settle must look at are put back
//     from the lists NewSim computed for the initial marking.
//
// That matters in Monte-Carlo replica loops, where a worker runs
// thousands of realizations of ten microseconds each. The OnFire observer,
// full-rescan mode, and instantaneous-loop limit are preserved.
func (s *Sim) Reset(r *rng.Stream) {
	s.rand = r
	s.fired = 0
	for _, ai := range s.armLog {
		s.acts[ai].flags &^= flagArmed | flagLogged
	}
	s.armLog = s.armLog[:0]
	s.sim.Reset() // drops the completions still scheduled
	// The work lists are empty whenever Run has returned (they hold
	// something only after a panic inside a gate), and so is the enabled
	// set unless nothing ran since NewSim or the last Reset. What it holds
	// is taken out and, if watched, filed again under the initial marking.
	for _, ai := range s.pending {
		s.acts[ai].flags &^= flagPending
	}
	for _, ai := range s.timedTouch {
		s.acts[ai].flags &^= flagTouch
	}
	s.pending = append(s.pending[:0], s.on...)
	stale := s.pending
	for _, ai := range stale {
		s.acts[ai].onPos = 0
	}
	s.on = s.on[:0]
	mk := &s.marking
	mk.reset()
	if s.fullRescan {
		s.fileAll() // the reference keeps no watch list up to date
	} else {
		for _, pi := range mk.touched {
			if p := &s.places[pi]; mk.m[pi] > 0 && p.head >= 0 {
				s.wake(p)
			}
		}
		for _, ai := range stale {
			if a := &s.acts[ai]; a.kind == kindWatched {
				s.watch(ai, a)
			}
		}
	}
	mk.touched = mk.touched[:0]

	init := &s.initial
	s.pending = append(s.pending[:0], init.pending...)
	for _, ai := range s.pending {
		s.acts[ai].flags |= flagPending
	}
	s.timedTouch = append(s.timedTouch[:0], init.timed...)
	for _, ai := range s.timedTouch {
		s.acts[ai].flags |= flagTouch
	}
	s.fresh = true
}

// SetFullRescan forces re-evaluation of every activity after every firing,
// ignoring declared dependencies and watch lists. Slow; used to validate
// gate Reads declarations and the incremental bookkeeping in tests. Set it
// before the first Run after NewSim or Reset.
func (s *Sim) SetFullRescan(on bool) { s.fullRescan = on }

// Marking exposes the live marking (for reward observation between events).
func (s *Sim) Marking() *Marking { return &s.marking }

// Now returns the current virtual time in milliseconds.
func (s *Sim) Now() float64 { return s.sim.Now() }

// Fired returns the number of activity completions so far.
func (s *Sim) Fired() uint64 { return s.fired }

// OnFire registers an observer invoked after every activity completion,
// with the completed activity and chosen case index. Used for reward
// variables ("impulse rewards" in SAN terminology).
func (s *Sim) OnFire(fn func(a *Activity, caseIdx int)) { s.onFire = fn }

// enabled reports whether activity a may complete in the current marking.
func (s *Sim) enabled(a *act) bool {
	if s.emptyInput(a) >= 0 {
		return false
	}
	for _, g := range s.gates[a.gates.lo:a.gates.hi] {
		if !g.enabled(&s.marking) {
			return false
		}
	}
	return true
}

// emptyInput returns the first empty input-arc place of a, or -1 when all
// are marked (which for a watched activity means enabled).
func (s *Sim) emptyInput(a *act) int32 {
	m := s.marking.m
	for _, pi := range a.in {
		if m[pi] == 0 {
			return pi
		}
	}
	return -1
}

// enqueue marks activity ai for re-evaluation: an instantaneous one in the
// next refreshPending, a timed one when settle re-arms.
func (s *Sim) enqueue(ai int32, a *act) {
	switch {
	case a.kind != kindTimed:
		if a.flags&flagPending == 0 {
			a.flags |= flagPending
			s.pending = append(s.pending, ai)
		}
	case a.flags&flagTouch == 0:
		a.flags |= flagTouch
		s.timedTouch = append(s.timedTouch, ai)
	}
}

// setOn adds instantaneous activity ai to the enabled set or removes it.
func (s *Sim) setOn(ai int32, a *act, on bool) {
	pos := a.onPos
	switch {
	case on && pos == 0:
		s.on = append(s.on, ai)
		a.onPos = int32(len(s.on))
	case !on && pos != 0:
		last := len(s.on) - 1
		moved := s.on[last]
		s.on[pos-1] = moved
		s.acts[moved].onPos = pos
		s.on = s.on[:last]
		a.onPos = 0
	}
}

// watch files watched activity ai, currently in neither the enabled set
// nor a watch list, under the current marking: on the watch list of its
// first empty input place, or in the enabled set when it has none.
func (s *Sim) watch(ai int32, a *act) {
	if pi := s.emptyInput(a); pi < 0 {
		s.on = append(s.on, ai)
		a.onPos = int32(len(s.on))
	} else {
		s.file(ai, a, pi)
	}
}

// file puts disabled watched activity ai on the watch list of pi, an empty
// input place of its own.
func (s *Sim) file(ai int32, a *act, pi int32) {
	p := &s.places[pi]
	a.next = p.head
	p.head = ai
}

// wake takes the activities waiting on p, which is now marked, off its
// watch list and files each of them again.
func (s *Sim) wake(p *place) {
	ai := p.head
	p.head = -1
	for ai >= 0 {
		a := &s.acts[ai]
		next := a.next
		s.watch(ai, a)
		ai = next
	}
}

// drainDirty propagates marking writes: dependents of a written place
// become pending, the activities waiting on a place that is now marked
// are filed again, and if a place some enabled watched activity may have
// as input was emptied, the enabled watched activities are re-checked.
// Only the marking as it stands now matters — a place taken 1 -> 0 -> 1
// inside one completion is simply marked.
func (s *Sim) drainDirty() {
	if s.fullRescan {
		s.drainFull()
		return
	}
	mk := &s.marking
	emptied := false
	for _, pi := range mk.dirty {
		p := &s.places[pi]
		for _, ai := range p.deps {
			// A gated activity outside the enabled set whose input arcs
			// are not all marked is disabled whatever its gates read.
			if a := &s.acts[ai]; a.kind == kindTimed || a.onPos != 0 || s.emptyInput(a) < 0 {
				s.enqueue(ai, a)
			}
		}
		switch {
		case mk.m[pi] == 0:
			emptied = emptied || p.watched
		case p.head >= 0:
			s.wake(p)
		}
	}
	mk.dirty = mk.dirty[:0]
	if !emptied {
		return
	}
	for i := 0; i < len(s.on); {
		ai := s.on[i]
		a := &s.acts[ai]
		pi := int32(-1)
		if a.kind == kindWatched {
			pi = s.emptyInput(a)
		}
		if pi < 0 {
			i++
			continue
		}
		s.setOn(ai, a, false) // moves the last entry to position i
		s.file(ai, a, pi)
	}
}

// drainFull is drainDirty in full-rescan mode: every instantaneous
// activity becomes pending. The timed dependents of the written places
// are still enqueued first, in write order: the order in which timed
// activities are first touched is the order they are armed in, and the
// reference must not differ from the simulator there for any reason other
// than a dependency the simulator missed (settle sweeps up the untouched
// timed activities before arming).
func (s *Sim) drainFull() {
	mk := &s.marking
	for _, pi := range mk.dirty {
		for _, ai := range s.places[pi].deps {
			if a := &s.acts[ai]; a.kind == kindTimed {
				s.enqueue(ai, a)
			}
		}
	}
	mk.dirty = mk.dirty[:0]
	for i := range s.acts {
		if a := &s.acts[i]; a.kind != kindTimed {
			s.enqueue(int32(i), a)
		}
	}
}

// refreshPending folds the pending instantaneous activities into the
// enabled set.
func (s *Sim) refreshPending() {
	for _, ai := range s.pending {
		a := &s.acts[ai]
		a.flags &^= flagPending
		s.setOn(ai, a, s.enabled(a))
	}
	s.pending = s.pending[:0]
}

// nextInstant returns the enabled instantaneous activity to complete
// next: highest priority, then oldest FIFO arrival (an activity without a
// FIFO queue goes before any that has one), then lowest creation index.
// The enabled set is not empty.
func (s *Sim) nextInstant() int32 {
	best, bestPrio, bestKey := int32(-1), int32(0), 0.0
	for _, ai := range s.on {
		a := &s.acts[ai]
		key := math.Inf(-1)
		if a.fifo >= 0 {
			key = s.marking.oldest(a.fifo)
		}
		if best < 0 || a.priority > bestPrio ||
			(a.priority == bestPrio && (key < bestKey || (key == bestKey && ai < best))) {
			best, bestPrio, bestKey = ai, a.priority, key
		}
	}
	return best
}

// settle completes enabled instantaneous activities in nextInstant order
// until none is enabled, then re-arms timed activities to match the final
// marking.
func (s *Sim) settle() {
	s.drainDirty()
	for iter := 0; ; iter++ {
		if iter >= s.instLimit {
			panic(fmt.Sprintf("san: instantaneous activity loop in model %q", s.model.name))
		}
		if len(s.pending) > 0 {
			s.refreshPending()
		}
		if len(s.on) == 0 {
			break
		}
		best := s.nextInstant()
		s.complete(best)
		if a := &s.acts[best]; a.kind != kindWatched {
			s.enqueue(best, a)
		}
		s.drainDirty()
	}
	if s.fullRescan {
		for i := range s.acts {
			if a := &s.acts[i]; a.kind == kindTimed {
				s.enqueue(int32(i), a)
			}
		}
	}
	if s.fresh {
		// The first settle arms in creation order. The list holds the
		// activities Reset put there followed by those the instantaneous
		// completions touched, so it has to be sorted.
		s.fresh = false
		slices.Sort(s.timedTouch)
	}
	// Re-arm touched timed activities against the stable marking.
	for _, ai := range s.timedTouch {
		a := &s.acts[ai]
		a.flags &^= flagTouch
		en, armed := s.enabled(a), a.flags&flagArmed != 0
		switch {
		case en && !armed:
			t := &s.timers[a.timer]
			d := t.delay(&s.marking).Sample(s.rand)
			if a.flags&flagLogged == 0 {
				s.armLog = append(s.armLog, ai)
			}
			a.flags |= flagArmed | flagLogged
			t.armed = s.sim.After(d, t.fire)
		case !en && armed:
			s.sim.Cancel(s.timers[a.timer].armed)
			a.flags &^= flagArmed
		}
	}
	s.timedTouch = s.timedTouch[:0]
}

// fire handles the scheduled completion of timed activity ai.
func (s *Sim) fire(ai int32) {
	a := &s.acts[ai]
	a.flags &^= flagArmed
	s.enqueue(ai, a) // may need re-arming if still enabled afterwards
	// The activity was continuously enabled since arming (we cancel on
	// disable), but a same-timestamp event may have disabled it; re-check.
	if s.enabled(a) {
		s.complete(ai)
	}
	s.settle()
}

// complete applies the effect of an activity completion: input arcs and
// gate functions, case selection, then output arcs and gate functions.
func (s *Sim) complete(ai int32) {
	a := &s.acts[ai]
	mk := &s.marking
	mk.now = s.sim.Now()
	mk.move(a.in, -1)
	for _, g := range s.gates[a.gates.lo:a.gates.hi] {
		if g.fn != nil {
			g.fn(mk)
		}
	}
	cases := s.cases[a.cases.lo:a.cases.hi]
	caseIdx := 0
	if len(cases) > 1 {
		u := s.rand.Float64()
		for caseIdx < len(cases)-1 && u >= cases[caseIdx].acc {
			caseIdx++
		}
	}
	if len(cases) > 0 {
		c := &cases[caseIdx]
		mk.move(s.arcs[c.out.lo:c.out.hi], 1)
		for _, fn := range s.outFns[c.fns.lo:c.fns.hi] {
			fn(mk)
		}
	}
	s.fired++
	if s.onFire != nil {
		s.onFire(s.model.activities[ai], caseIdx)
	}
}

// Run simulates until stop returns true (checked after each completion and
// once before the first), no activity is enabled, or the virtual clock
// exceeds tmax. It returns the stop time and whether stop was satisfied.
func (s *Sim) Run(tmax float64, stop func(mk *Marking) bool) (t float64, stopped bool) {
	s.settle()
	if stop != nil && stop(&s.marking) {
		return s.sim.Now(), true
	}
	for s.sim.StepUntil(tmax) {
		if stop != nil && stop(&s.marking) {
			return s.sim.Now(), true
		}
	}
	return s.sim.Now(), false
}
