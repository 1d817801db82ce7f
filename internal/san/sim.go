package san

import (
	"fmt"
	"math"
	"sort"

	"ctsan/internal/des"
	"ctsan/internal/rng"
)

// Sim executes one stochastic realization of a SAN model. Create it with
// NewSim, call Run, and Reset it to run the next replica on the same model.
// The same Model may back many Sims.
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
// SetFullRescan ignores all of it and re-evaluates every activity after
// every completion: the reference the differential tests compare against.
type Sim struct {
	model   *Model
	marking Marking
	sim     des.Sim
	rand    *rng.Stream
	onFire  func(a *Activity, caseIdx int)
	fired   uint64

	armed   []des.Handle // per activity; meaningful when isArmed
	isArmed []bool
	fireFns []func() // per activity; reused across armings and Resets

	// watchIn[activity] lists the input place idxs of a watched activity
	// (instantaneous, input arcs only) and is nil for every other one.
	watchIn [][]int
	deps    [][]int // place idx -> dependent timed and gated activity idxs

	// on is the set of enabled instantaneous activities, dense; onPos maps
	// an activity to its position in on plus one, 0 when absent.
	on    []int
	onPos []int
	// Watch lists, singly linked through the activities: watchHead[place]
	// is the first disabled watched activity waiting on the place (-1 for
	// none), watchNext[activity] the next one waiting on the same place.
	watchHead []int
	watchNext []int

	pending    []int // gated and timed activities to re-evaluate
	inPending  []bool
	timedTouch []int // timed activities to (re)examine at the end of settle
	inTouch    []bool
	fresh      bool // no settle has run since NewSim or Reset

	// initial is the bookkeeping of the initial marking, computed once by
	// NewSim and copied back by Reset.
	initial struct {
		on                   []int // watched activities enabled initially
		watchHead, watchNext []int
		pending              []int // gated instantaneous, input arcs marked
		timed                []int // timed, input arcs marked
	}

	fullRescan bool
	instLimit  int
}

// NewSim prepares a simulation of the model with the given random stream.
// It panics if the model fails Validate; validate explicitly for a
// recoverable error.
func NewSim(m *Model, r *rng.Stream) *Sim {
	root := m.rootModel()
	if err := root.Validate(); err != nil {
		panic(err)
	}
	nP, nA := len(root.places), len(root.activities)
	s := &Sim{
		model:     root,
		armed:     make([]des.Handle, nA),
		isArmed:   make([]bool, nA),
		fireFns:   make([]func(), nA),
		watchIn:   make([][]int, nA),
		deps:      make([][]int, nP),
		onPos:     make([]int, nA),
		watchHead: make([]int, nP),
		watchNext: make([]int, nA),
		inPending: make([]bool, nA),
		inTouch:   make([]bool, nA),
		instLimit: 1_000_000,
	}
	mk := &s.marking
	*mk = Marking{
		m:         make([]int, nP),
		arr:       make([][]float64, nP),
		head:      make([]int, nP),
		isTouched: make([]bool, nP),
	}
	init := &s.initial
	for _, p := range root.places {
		mk.m[p.idx] = p.initial
		mk.arr[p.idx] = make([]float64, p.initial) // arrived at time zero
		s.watchHead[p.idx] = -1
	}
	// Classify the activities against the initial marking, and index the
	// unwatched ones by the places they depend on. stamp[p] == ai+1 once
	// place p is recorded as a dependency of activity ai.
	stamp := make([]int, nP)
	nIn := 0
	for _, a := range root.activities {
		nIn += len(a.inputs)
	}
	inputs := make([]int, 0, nIn) // backs every watchIn entry, never regrown
	depend := func(ai int, p *Place) {
		if stamp[p.idx] != ai+1 {
			stamp[p.idx] = ai + 1
			s.deps[p.idx] = append(s.deps[p.idx], ai)
		}
	}
	for _, a := range root.activities {
		// One completion closure per activity, allocated once: arming an
		// activity must not allocate in the steady state.
		a := a
		s.fireFns[a.idx] = func() { s.fire(a) }
		if !a.timed && len(a.gates) == 0 {
			first := len(inputs)
			for _, p := range a.inputs {
				inputs = append(inputs, p.idx)
			}
			s.watchIn[a.idx] = inputs[first:len(inputs):len(inputs)]
			s.watch(a.idx)
			continue
		}
		marked := true
		for _, p := range a.inputs {
			depend(a.idx, p)
			marked = marked && p.initial > 0
		}
		for _, g := range a.gates {
			for _, p := range g.Reads {
				depend(a.idx, p)
			}
		}
		// An activity whose input arcs the initial marking does not satisfy
		// is disabled whatever its gates say, and is enqueued through deps
		// as soon as one of those places changes.
		switch {
		case !marked:
		case a.timed:
			init.timed = append(init.timed, a.idx)
		default:
			init.pending = append(init.pending, a.idx)
		}
	}
	init.on = append([]int(nil), s.on...)
	init.watchHead = append([]int(nil), s.watchHead...)
	init.watchNext = append([]int(nil), s.watchNext...)
	s.Reset(r)
	return s
}

// Reset returns the simulator to the model's initial marking with a fresh
// random stream, reusing every internal allocation (marking arrays,
// dependency index, event pool). It is observably equivalent to
// NewSim(model, r) but allocation-free and does not evaluate a single
// activity: the enabled set, the watch lists and the activities the first
// settle must look at are copied back from the state NewSim computed for
// the initial marking. That matters in Monte-Carlo replica loops, where a
// worker runs thousands of realizations. The OnFire observer, full-rescan
// mode, and instantaneous-loop limit are preserved.
func (s *Sim) Reset(r *rng.Stream) {
	s.rand = r
	s.fired = 0
	s.sim.Reset()
	init := &s.initial
	s.marking.reset(s.model.places)
	clear(s.isArmed)
	clear(s.inPending)
	clear(s.inTouch)
	clear(s.onPos)
	s.on = append(s.on[:0], init.on...)
	for i, ai := range s.on {
		s.onPos[ai] = i + 1
	}
	copy(s.watchHead, init.watchHead)
	copy(s.watchNext, init.watchNext)
	s.pending = append(s.pending[:0], init.pending...)
	for _, ai := range s.pending {
		s.inPending[ai] = true
	}
	s.timedTouch = append(s.timedTouch[:0], init.timed...)
	for _, ai := range s.timedTouch {
		s.inTouch[ai] = true
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

// enqueue marks activity ai for re-evaluation.
func (s *Sim) enqueue(ai int) {
	if !s.inPending[ai] {
		s.inPending[ai] = true
		s.pending = append(s.pending, ai)
	}
}

// setOn adds instantaneous activity ai to the enabled set or removes it.
func (s *Sim) setOn(ai int, on bool) {
	pos := s.onPos[ai]
	switch {
	case on && pos == 0:
		s.on = append(s.on, ai)
		s.onPos[ai] = len(s.on)
	case !on && pos != 0:
		last := len(s.on) - 1
		moved := s.on[last]
		s.on[pos-1] = moved
		s.onPos[moved] = pos
		s.on = s.on[:last]
		s.onPos[ai] = 0
	}
}

// emptyInput returns the first empty input place of watched activity ai,
// or -1 when all are marked and the activity is enabled.
func (s *Sim) emptyInput(ai int) int {
	for _, pi := range s.watchIn[ai] {
		if s.marking.m[pi] == 0 {
			return pi
		}
	}
	return -1
}

// watch files watched activity ai, currently in neither the enabled set
// nor a watch list, under the current marking: on the watch list of its
// first empty input place, or in the enabled set when it has none.
func (s *Sim) watch(ai int) {
	pi := s.emptyInput(ai)
	if pi < 0 {
		s.setOn(ai, true)
		return
	}
	s.watchNext[ai] = s.watchHead[pi]
	s.watchHead[pi] = ai
}

// drainDirty propagates marking writes: dependents of a written place
// become pending, the activities waiting on a place that is now marked
// are filed again, and if any place was emptied the enabled watched
// activities are re-checked. Only the marking as it stands now matters —
// a place taken 1 -> 0 -> 1 inside one completion is simply marked.
//
// In full-rescan mode every instantaneous activity becomes pending
// instead. The dependents are still enqueued first: the order in which
// timed activities are first touched is the order they are armed in, and
// the reference must not differ from the simulator there for any reason
// other than a dependency the simulator missed (settle sweeps up the
// untouched timed activities before arming).
func (s *Sim) drainDirty() {
	mk := &s.marking
	emptied := false
	for _, pi := range mk.dirty {
		for _, ai := range s.deps[pi] {
			s.enqueue(ai)
		}
		if s.fullRescan {
			continue
		}
		if mk.m[pi] == 0 {
			emptied = true
			continue
		}
		ai := s.watchHead[pi]
		s.watchHead[pi] = -1
		for ai >= 0 {
			next := s.watchNext[ai]
			s.watch(ai)
			ai = next
		}
	}
	mk.dirty = mk.dirty[:0]
	if s.fullRescan {
		for i, a := range s.model.activities {
			if !a.timed {
				s.enqueue(i)
			}
		}
		return
	}
	if !emptied {
		return
	}
	for i := 0; i < len(s.on); {
		ai := s.on[i]
		if s.watchIn[ai] == nil || s.emptyInput(ai) < 0 {
			i++
			continue
		}
		s.setOn(ai, false) // moves the last entry to position i
		s.watch(ai)
	}
}

// refreshPending folds the pending set into the enabled-instantaneous set
// and the touched-timed list.
func (s *Sim) refreshPending() {
	for _, ai := range s.pending {
		s.inPending[ai] = false
		a := s.model.activities[ai]
		if a.timed {
			if !s.inTouch[ai] {
				s.inTouch[ai] = true
				s.timedTouch = append(s.timedTouch, ai)
			}
			continue
		}
		s.setOn(ai, a.enabled(&s.marking))
	}
	s.pending = s.pending[:0]
}

// nextInstant returns the enabled instantaneous activity to complete
// next: highest priority, then oldest FIFO arrival (an activity without a
// FIFO queue goes before any that has one), then lowest creation index.
// It returns nil when none is enabled.
func (s *Sim) nextInstant() *Activity {
	var best *Activity
	bestKey := 0.0
	for _, ai := range s.on {
		a := s.model.activities[ai]
		key := math.Inf(-1)
		if a.fifoKey != nil {
			key = s.marking.OldestArrival(a.fifoKey)
		}
		if best == nil || a.priority > best.priority ||
			(a.priority == best.priority && (key < bestKey || (key == bestKey && a.idx < best.idx))) {
			best = a
			bestKey = key
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
		s.refreshPending()
		best := s.nextInstant()
		if best == nil {
			break
		}
		s.complete(best)
		if s.watchIn[best.idx] == nil {
			s.enqueue(best.idx)
		}
		s.drainDirty()
	}
	if s.fullRescan {
		for i, a := range s.model.activities {
			if a.timed && !s.inTouch[i] {
				s.inTouch[i] = true
				s.timedTouch = append(s.timedTouch, i)
			}
		}
	}
	if s.fresh {
		// The first settle arms in creation order. The list holds the
		// activities Reset put there followed by those the instantaneous
		// completions touched, so it has to be sorted.
		s.fresh = false
		sort.Ints(s.timedTouch)
	}
	// Re-arm touched timed activities against the stable marking.
	for _, ai := range s.timedTouch {
		s.inTouch[ai] = false
		a := s.model.activities[ai]
		en := a.enabled(&s.marking)
		switch {
		case en && !s.isArmed[a.idx]:
			d := a.delay(&s.marking).Sample(s.rand)
			s.isArmed[a.idx] = true
			s.armed[a.idx] = s.sim.After(d, s.fireFns[a.idx])
		case !en && s.isArmed[a.idx]:
			s.sim.Cancel(s.armed[a.idx])
			s.isArmed[a.idx] = false
		}
	}
	s.timedTouch = s.timedTouch[:0]
}

// fire handles the scheduled completion of a timed activity.
func (s *Sim) fire(a *Activity) {
	s.isArmed[a.idx] = false
	s.enqueue(a.idx) // may need re-arming if still enabled afterwards
	// The activity was continuously enabled since arming (we cancel on
	// disable), but a same-timestamp event may have disabled it; re-check.
	if !a.enabled(&s.marking) {
		s.settle()
		return
	}
	s.complete(a)
	s.settle()
}

// complete applies the effect of an activity completion: input arcs and
// gate functions, case selection, then output arcs and gate functions.
func (s *Sim) complete(a *Activity) {
	s.marking.now = s.sim.Now()
	for _, p := range a.inputs {
		s.marking.Add(p, -1)
	}
	for _, g := range a.gates {
		if g.Fn != nil {
			g.Fn(&s.marking)
		}
	}
	caseIdx := 0
	if len(a.cases) > 1 {
		u := s.rand.Float64()
		acc := 0.0
		for i, c := range a.cases {
			acc += c.p
			if u < acc || i == len(a.cases)-1 {
				caseIdx = i
				break
			}
		}
	}
	if len(a.cases) > 0 {
		c := a.cases[caseIdx]
		for _, p := range c.outputs {
			s.marking.Add(p, 1)
		}
		for _, g := range c.gates {
			g.Fn(&s.marking)
		}
	}
	s.fired++
	if s.onFire != nil {
		s.onFire(a, caseIdx)
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
	for {
		nt, ok := s.sim.PeekTime()
		if !ok || nt > tmax {
			return s.sim.Now(), false
		}
		s.sim.Step()
		if stop != nil && stop(&s.marking) {
			return s.sim.Now(), true
		}
	}
}

// EnabledActivities returns the names of currently enabled activities,
// sorted; useful in tests and debugging.
func (s *Sim) EnabledActivities() []string {
	var names []string
	for _, a := range s.model.activities {
		if a.enabled(&s.marking) {
			names = append(names, a.name)
		}
	}
	sort.Strings(names)
	return names
}
