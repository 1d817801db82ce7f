// Package san implements Stochastic Activity Networks (SANs), the modeling
// formalism of Movaghar, Meyer & Sanders used by the paper, together with a
// discrete-event transient simulator — an open substitute for the UltraSAN
// tool (§3.1).
//
// A SAN consists of:
//
//   - places holding non-negative integer markings;
//   - timed activities, which fire after a random delay drawn from a
//     (possibly marking-dependent) distribution once enabled;
//   - instantaneous activities, which fire as soon as they are enabled,
//     with integer priorities;
//   - cases on activities: probabilistic alternatives for the effect of a
//     firing (the paper uses them for the bi-modal network delay and for
//     the initial failure-detector state);
//   - input gates (enabling predicate + input function) and output gates
//     (output function), which give SANs their expressive power over plain
//     Petri nets;
//   - default input/output arcs, shorthand for "one token consumed/produced".
//
// Composition in UltraSAN (REP/JOIN) works by sharing places between
// submodels; here submodels are built programmatically and share *Place
// values directly, with Model.Namespace providing name scoping.
//
// Execution semantics follow UltraSAN: when the marking changes, every
// activity's enabling condition is re-evaluated. A newly enabled timed
// activity samples an activation delay; an activity that becomes disabled
// is deactivated (its sampled completion is aborted); an activity that
// remains enabled keeps its scheduled completion time. Instantaneous
// activities complete in priority order before any timed activity.
package san

import (
	"fmt"
	"math"

	"ctsan/internal/dist"
)

// Place is a SAN place. Places are created through Model.Place and hold a
// non-negative integer marking.
type Place struct {
	name    string
	idx     int
	initial int
}

// Marking is the state of a SAN: one non-negative integer per place.
// Gate predicates and functions receive the live marking and address it
// by *Place; the simulator's own arcs address the same vector by index.
// It keeps only what something reads. Every write is recorded — once per
// drain so the simulator re-evaluates only the affected activities
// (dirty), once per replica so Reset restores only what the replica wrote
// (touched) — and the arrival instants of tokens are kept for the places
// declared as some activity's FIFO key and for no other: competing
// instantaneous activities are served in arrival order of their queues
// (§3.3 of the paper: a message "waits until the network is available"),
// and nothing else in a SAN can tell one token from another.
type Marking struct {
	m       []int
	places  []*Place // indexed like m; names, for panics
	initial []int    // the model's initial marking, restored by reset
	dirty   []int32  // place indices written since the last drain
	// touched lists the places written since the last reset, each once
	// (placeTouched), so resetting costs what the replica wrote.
	touched []int32
	flags   []uint8 // placeTouched | placeKeyed
	// The arrival times of the tokens currently in FIFO-key place i,
	// oldest first: first[i], then more[q][head[q]:] with q = queue[i]. A
	// queue mostly holds one token or none, and then only first is
	// touched. Every other place has queue[i] = -1 and no entry in more
	// and head. now is maintained by the simulator.
	first []float64
	queue []int32
	more  [][]float64
	head  []int
	now   float64
}

// Per-place flags of a Marking.
const (
	placeTouched uint8 = 1 << iota // in Marking.touched
	placeKeyed                     // some activity's FIFO key: arrivals kept
)

// Get returns the number of tokens in p.
func (mk *Marking) Get(p *Place) int { return mk.m[p.idx] }

// oldest is the arrival time of the oldest token in FIFO-key place i,
// or +Inf if it is empty.
func (mk *Marking) oldest(i int32) float64 {
	if mk.m[i] == 0 {
		return math.Inf(1)
	}
	return mk.first[i]
}

// Set assigns the number of tokens in p. Negative counts panic: they always
// indicate a modeling bug.
func (mk *Marking) Set(p *Place, v int) { mk.set(int32(p.idx), v) }

// Add adjusts the tokens in p by delta (which may be negative).
func (mk *Marking) Add(p *Place, delta int) { mk.set(int32(p.idx), mk.m[p.idx]+delta) }

// move adds d = ±1 token to every place of arcs, an activity's input arcs
// or the output arcs of one of its cases. A place the replica has written
// before — all but the first write to most places — needs no more than
// the count and the drain's notice if it is nobody's FIFO key, and the
// arrival time on top when a key goes from empty to one token.
func (mk *Marking) move(arcs []int32, d int) {
	for _, i := range arcs {
		v := mk.m[i] + d
		switch f := mk.flags[i]; {
		case f == placeTouched && v >= 0:
		case f == placeTouched|placeKeyed && v == 1 && d > 0:
			mk.first[i] = mk.now
		case f == placeTouched|placeKeyed && v == 0:
		default:
			mk.set(i, v)
			continue
		}
		mk.m[i] = v
		mk.dirty = append(mk.dirty, i)
	}
}

// set is Set by place index.
func (mk *Marking) set(i int32, v int) {
	old := mk.m[i]
	if old == v {
		return
	}
	if v < 0 {
		panic(fmt.Sprintf("san: negative marking for place %q", mk.places[i].name))
	}
	mk.m[i] = v
	mk.dirty = append(mk.dirty, i)
	f := mk.flags[i]
	if f&placeTouched == 0 {
		mk.flags[i] = f | placeTouched
		mk.touched = append(mk.touched, i)
	}
	if f&placeKeyed != 0 {
		mk.stamp(i, old, v)
	}
}

// stamp moves FIFO-key place i's arrival queue from old to v tokens: new
// tokens arrive now, the oldest leave first.
func (mk *Marking) stamp(i int32, old, v int) {
	q := mk.queue[i]
	for ; old < v; old++ {
		if old == 0 {
			mk.first[i] = mk.now
		} else {
			mk.more[q] = append(mk.more[q], mk.now)
		}
	}
	for ; old > v && old > 1; old-- {
		mk.first[i] = mk.more[q][mk.head[q]]
		mk.head[q]++
	}
	if mk.head[q] > 0 && mk.head[q] == len(mk.more[q]) { // reclaim the drained prefix
		mk.more[q] = mk.more[q][:0]
		mk.head[q] = 0
	}
}

// reset restores the initial marking, every token having arrived at time
// zero. Only the touched places are visited; the list of them is left for
// the simulator to propagate the restoring writes from, and to clear.
func (mk *Marking) reset() {
	for _, i := range mk.touched {
		n := mk.initial[i]
		mk.m[i] = n
		if mk.flags[i]&placeKeyed != 0 {
			mk.first[i] = 0
			if q := mk.queue[i]; n > 1 || len(mk.more[q]) > 0 {
				more := mk.more[q][:0]
				for ; n > 1; n-- {
					more = append(more, 0)
				}
				mk.more[q] = more
				mk.head[q] = 0
			}
		}
		mk.flags[i] &^= placeTouched
	}
	mk.dirty = mk.dirty[:0]
	mk.now = 0
}

// InputGate controls the enabling of an activity and transforms the marking
// when the activity completes. Enabled must be side-effect free and must
// read only the places listed in Reads: the simulator re-evaluates the
// enabling of an activity only when one of its declared places changes
// marking (tests can cross-check with Sim.SetFullRescan). Fn may write any
// place; writes are tracked through the Marking automatically.
type InputGate struct {
	Name    string
	Reads   []*Place
	Enabled func(mk *Marking) bool
	Fn      func(mk *Marking) // may be nil
}

// OutputGate transforms the marking when a case of an activity completes.
type OutputGate struct {
	Name string
	Fn   func(mk *Marking)
}

// Case is one probabilistic alternative of an activity's effect.
type Case struct {
	p       float64
	outputs []*Place
	gates   []*OutputGate
}

// Output adds default output arcs (one token each) to the case.
func (c *Case) Output(places ...*Place) *Case {
	c.outputs = append(c.outputs, places...)
	return c
}

// Gate adds an output gate function to the case.
func (c *Case) Gate(name string, fn func(mk *Marking)) *Case {
	c.gates = append(c.gates, &OutputGate{Name: name, Fn: fn})
	return c
}

// DistFunc returns the firing-delay distribution for the current marking.
// Most activities use a fixed distribution; see Fixed.
type DistFunc func(mk *Marking) dist.Dist

// Fixed wraps a constant distribution as a DistFunc.
func Fixed(d dist.Dist) DistFunc { return func(*Marking) dist.Dist { return d } }

// Activity is a timed or instantaneous SAN activity. Configure it with the
// chained Input/InputGate/Case methods before simulating.
type Activity struct {
	name     string
	idx      int
	timed    bool
	delay    DistFunc // nil for instantaneous
	priority int      // instantaneous only; higher fires first
	inputs   []*Place
	gates    []*InputGate
	cases    []*Case
	fifoKey  *Place // see FIFO
}

// Input adds default input arcs: the activity is enabled only if each
// listed place holds at least one token, and one token is removed from each
// when the activity completes.
func (a *Activity) Input(places ...*Place) *Activity {
	a.inputs = append(a.inputs, places...)
	return a
}

// InputGate attaches an input gate. reads lists every place the enabling
// predicate consults (see InputGate.Reads).
func (a *Activity) InputGate(name string, reads []*Place, enabled func(mk *Marking) bool, fn func(mk *Marking)) *Activity {
	a.gates = append(a.gates, &InputGate{Name: name, Reads: reads, Enabled: enabled, Fn: fn})
	return a
}

// Case appends a case with the given probability and returns it for
// configuration. Case probabilities of an activity must sum to 1 (checked
// by Model.Validate). An activity with no explicit cases has a single
// implicit case with probability 1; use DefaultCase for it.
func (a *Activity) Case(p float64) *Case {
	c := &Case{p: p}
	a.cases = append(a.cases, c)
	return c
}

// DefaultCase returns the single implicit case (probability 1), creating it
// if needed. It panics if explicit cases were already added.
func (a *Activity) DefaultCase() *Case {
	if len(a.cases) == 0 {
		return a.Case(1)
	}
	if len(a.cases) == 1 {
		return a.cases[0]
	}
	panic(fmt.Sprintf("san: activity %q already has %d cases", a.name, len(a.cases)))
}

// Output is shorthand for DefaultCase().Output.
func (a *Activity) Output(places ...*Place) *Activity {
	a.DefaultCase().Output(places...)
	return a
}

// OutputGate is shorthand for DefaultCase().Gate.
func (a *Activity) OutputGate(name string, fn func(mk *Marking)) *Activity {
	a.DefaultCase().Gate(name, fn)
	return a
}

// FIFO declares that, among enabled instantaneous activities of equal
// priority, this activity competes in arrival order of the oldest token in
// q (its waiting queue). This gives shared resources (CPU, network medium)
// first-come-first-served service instead of the default
// creation-order resolution.
func (a *Activity) FIFO(q *Place) *Activity {
	a.fifoKey = q
	return a
}

// Model is a SAN under construction. Build places and activities, then
// Validate and simulate with NewSim or a Solver.
type Model struct {
	name       string
	places     []*Place
	activities []*Activity
	byName     map[string]bool
	prefix     string
	root       *Model // owner of the slices; nil when the receiver is the root
}

// NewModel creates an empty model.
func NewModel(name string) *Model {
	return &Model{name: name, byName: make(map[string]bool)}
}

// Namespace returns a view of the model that prefixes all created names
// with prefix + "."; places and activities land in the same flat model, so
// sharing a *Place across namespaces is the JOIN operation of UltraSAN.
func (m *Model) Namespace(prefix string) *Model {
	child := *m
	if m.prefix != "" {
		child.prefix = m.prefix + "." + prefix
	} else {
		child.prefix = prefix
	}
	// Namespace returns a shallow view; all mutations are routed to the
	// root model so that namespaced submodels share one flat SAN (JOIN).
	child.root = m.rootModel()
	return &child
}

func (m *Model) rootModel() *Model {
	if m.root != nil {
		return m.root
	}
	return m
}

// scopedName applies the namespace prefix.
func (m *Model) scopedName(name string) string {
	if m.prefix == "" {
		return name
	}
	return m.prefix + "." + name
}

// Place creates a place with an initial marking.
func (m *Model) Place(name string, initial int) *Place {
	root := m.rootModel()
	full := m.scopedName(name)
	if root.byName[full] {
		panic(fmt.Sprintf("san: duplicate name %q", full))
	}
	if initial < 0 {
		panic(fmt.Sprintf("san: negative initial marking for %q", full))
	}
	root.byName[full] = true
	p := &Place{name: full, idx: len(root.places), initial: initial}
	root.places = append(root.places, p)
	return p
}

// Timed creates a timed activity with the given delay distribution.
func (m *Model) Timed(name string, delay DistFunc) *Activity {
	return m.addActivity(name, true, delay, 0)
}

// Instant creates an instantaneous activity with the given priority
// (higher priorities complete first).
func (m *Model) Instant(name string, priority int) *Activity {
	return m.addActivity(name, false, nil, priority)
}

func (m *Model) addActivity(name string, timed bool, delay DistFunc, prio int) *Activity {
	root := m.rootModel()
	full := m.scopedName(name)
	if root.byName[full] {
		panic(fmt.Sprintf("san: duplicate name %q", full))
	}
	if timed && delay == nil {
		panic(fmt.Sprintf("san: timed activity %q without delay distribution", full))
	}
	root.byName[full] = true
	a := &Activity{name: full, idx: len(root.activities), timed: timed, delay: delay, priority: prio}
	root.activities = append(root.activities, a)
	return a
}

// Validate checks structural well-formedness: case probabilities sum to 1,
// every activity has an effect, and gate predicates are present.
func (m *Model) Validate() error {
	root := m.rootModel()
	for _, a := range root.activities {
		if len(a.inputs) == 0 && len(a.gates) == 0 {
			return fmt.Errorf("san: activity %q has no input arcs or gates (always enabled)", a.name)
		}
		for _, g := range a.gates {
			if g.Enabled == nil {
				return fmt.Errorf("san: input gate %q of %q has nil predicate", g.Name, a.name)
			}
		}
		if len(a.cases) > 0 {
			sum := 0.0
			for _, c := range a.cases {
				if c.p < 0 {
					return fmt.Errorf("san: activity %q has negative case probability", a.name)
				}
				sum += c.p
			}
			if math.Abs(sum-1) > 1e-9 {
				return fmt.Errorf("san: case probabilities of %q sum to %g, want 1", a.name, sum)
			}
		}
	}
	return nil
}
