package san

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ctsan/internal/dist"
	"ctsan/internal/rng"
)

// buildRandomModel constructs a random but well-formed SAN exercising
// every engine feature: a ring of places connected by timed activities
// with random delays and cases, a gated instantaneous activity, and a
// pool of servers contended by several gate-free seizers — FIFO and not,
// at equal and unequal priorities, with queues and pool marked by zero to
// two tokens initially — which is the shape the simulator's watch lists
// exist for. Output gates blip places the seizers wait on (0 -> 1 -> 0 and
// 1 -> 0 -> 1 inside one completion) and steal pool tokens, so enabled
// seizers get disabled by someone else's completion too. One more queue,
// "shared", is the FIFO key of one seizer and a plain input arc of
// another, and only output gates ever fill or trim it: arrival order is
// kept for keys only, and a key is written by more than arcs.
func buildRandomModel(r *rng.Stream) (*Model, *Place) {
	m := NewModel("random")
	n := 3 + r.Intn(6)
	places := make([]*Place, n)
	for i := range places {
		init := 0
		if r.Float64() < 0.5 {
			init = 1 + r.Intn(2)
		}
		places[i] = m.Place(name("p", i), init)
	}
	resource := m.Place("resource", 1)
	done := m.Place("done", 0)

	// The contended pool: seizer j moves a token from its queue and one
	// from the pool into busy_j; a timed serve returns the pool token.
	pool := m.Place("pool", r.Intn(3))
	k := 2 + r.Intn(4)
	queues := make([]*Place, k)
	for j := range queues {
		queues[j] = m.Place(name("q", j), r.Intn(3))
		busy := m.Place(name("busy", j), 0)
		seize := m.Instant(name("seize", j), 1+r.Intn(2)).Input(queues[j], pool).Output(busy)
		if r.Float64() < 0.6 {
			seize.FIFO(queues[j])
		}
		m.Timed(name("serve", j), Fixed(dist.U(0.05, 0.1+r.Float64()))).Input(busy).Output(pool, done)
	}
	shared := m.Place("shared", r.Intn(3))
	busyShared := m.Place("busyShared", 0)
	m.Instant("seizeShared", 1+r.Intn(2)).Input(shared, pool).FIFO(shared).Output(busyShared)
	m.Timed("serveShared", Fixed(dist.U(0.05, 0.3))).Input(busyShared).Output(pool, done)
	plain := m.Instant("takeShared", 1+r.Intn(2)).Input(shared, resource).Output(done)
	if r.Float64() < 0.5 {
		plain.FIFO(resource)
	}
	// fill adds a token to the shared queue; trim takes its oldest away.
	fill := func(mk *Marking) { mk.Add(shared, 1) }
	trim := func(mk *Marking) {
		if mk.Get(shared) > 1 {
			mk.Add(shared, -1)
		}
	}
	// blip writes p twice and leaves it as it was.
	blip := func(p *Place) func(mk *Marking) {
		return func(mk *Marking) {
			if mk.Get(p) > 0 {
				mk.Add(p, -1)
				mk.Add(p, 1)
			} else {
				mk.Add(p, 1)
				mk.Add(p, -1)
			}
		}
	}

	for i := 0; i < n; i++ {
		src := places[i]
		dst := places[(i+1)%n]
		var d dist.Dist
		switch r.Intn(3) {
		case 0:
			d = dist.Det(0.1 + r.Float64())
		case 1:
			d = dist.Exp(0.5 + r.Float64())
		default:
			d = dist.U(0.1, 0.2+r.Float64())
		}
		a := m.Timed(name("t", i), Fixed(d)).Input(src)
		feed := queues[r.Intn(k)]
		if r.Float64() < 0.5 {
			a.Case(0.4).Output(dst, feed).Gate("fillShared", fill)
			a.Case(0.6).Output(dst, done).Gate("blipPool", blip(pool)).Gate("trimShared", trim)
		} else {
			a.Output(dst, done, feed).OutputGate("blipQueue", blip(queues[r.Intn(k)]))
			if r.Float64() < 0.5 {
				a.OutputGate("fillShared", fill)
			}
		}
	}
	// A gated instantaneous activity consuming the resource when a place
	// is doubly marked; it also takes a pool token if there is one, behind
	// the back of whichever seizers were enabled by it.
	watch := places[r.Intn(n)]
	sink := m.Place("sink", 0)
	m.Instant("gated", 1).
		Input(resource).
		FIFO(resource).
		InputGate("ge2", []*Place{watch}, func(mk *Marking) bool { return mk.Get(watch) >= 2 }, nil).
		OutputGate("drain", func(mk *Marking) {
			mk.Set(watch, 0)
			mk.Add(sink, 1)
			if mk.Get(pool) > 0 {
				mk.Add(pool, -1)
			}
		})
	// Give the resource back now and then so gated fires more than once.
	m.Timed("refill", Fixed(dist.Exp(2))).Input(sink).Output(resource, pool)
	return m, done
}

func name(prefix string, i int) string { return prefix + string(rune('a'+i)) }

// firingTrace runs s to the stop condition and returns one line per
// completion: the activity, the chosen case, and every activity enabled in
// the marking it leaves behind. Two simulators with equal traces chose the
// same activity at every step and passed through the same markings as far
// as enabling can tell.
func firingTrace(s *Sim, tmax float64, stop func(mk *Marking) bool) []string {
	var lines []string
	s.OnFire(func(a *Activity, caseIdx int) {
		lines = append(lines, fmt.Sprintf("%s/%d -> %s", a.Name(), caseIdx, strings.Join(s.EnabledActivities(), ",")))
	})
	at, stopped := s.Run(tmax, stop)
	return append(lines, fmt.Sprintf("end t=%v stopped=%v fired=%d", at, stopped, s.Fired()))
}

// diffTraces reports the first line at which two traces part, or "".
func diffTraces(got, want []string) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d lines, want %d", len(got), len(want))
	}
	return ""
}

// checkQuiescent verifies the bookkeeping invariant between events, when
// settle has run to the end: no instantaneous activity is enabled, every
// watched one waits on an empty input place of its own, and a timed
// activity is armed exactly when it is enabled.
func checkQuiescent(s *Sim) error {
	if len(s.on) != 0 {
		return fmt.Errorf("%d activities left in the enabled set", len(s.on))
	}
	waitsOn := make(map[int32]int)
	for pi := range s.places {
		for ai := s.places[pi].head; ai >= 0; ai = s.acts[ai].next {
			if _, dup := waitsOn[ai]; dup {
				return fmt.Errorf("%s is on two watch lists", s.model.activities[ai].name)
			}
			waitsOn[ai] = pi
		}
	}
	for i := range s.acts {
		ai, a := int32(i), &s.acts[i]
		armed := a.flags&flagArmed != 0
		switch {
		case a.kind == kindTimed:
			if en := s.enabled(a); en != armed {
				return fmt.Errorf("%s: enabled %v, armed %v", s.model.activities[i].name, en, armed)
			}
		case s.enabled(a):
			return fmt.Errorf("%s is enabled after settle", s.model.activities[i].name)
		case a.kind == kindWatched:
			pi, ok := waitsOn[ai]
			if !ok {
				return fmt.Errorf("%s is disabled but on no watch list", s.model.activities[i].name)
			}
			if s.marking.m[pi] != 0 {
				return fmt.Errorf("%s waits on marked place %s", s.model.activities[i].name, s.model.places[pi].name)
			}
			if !slices.Contains(a.in, int32(pi)) {
				return fmt.Errorf("%s waits on %s, not one of its inputs", s.model.activities[i].name, s.model.places[pi].name)
			}
		}
		if armed && a.flags&flagLogged == 0 {
			return fmt.Errorf("%s is armed and Reset does not know", s.model.activities[i].name)
		}
	}
	return nil
}

// TestQuickDepTrackingEquivalence: on random models, the incremental
// simulator and the full-rescan simulator must complete the same
// activities with the same cases in the same order and leave the same
// activities enabled after each one, and the incremental bookkeeping must
// be consistent with the marking between events.
func TestQuickDepTrackingEquivalence(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		model, done := buildRandomModel(rng.New(seed))
		var broken error
		run := func(full bool) []string {
			s := NewSim(model, rng.New(seed^0xabc))
			s.SetFullRescan(full)
			return firingTrace(s, 50, func(mk *Marking) bool {
				if !full && broken == nil {
					broken = checkQuiescent(s)
				}
				return mk.Get(done) >= 40
			})
		}
		got, want := run(false), run(true)
		if d := diffTraces(got, want); d != "" {
			t.Logf("seed %d: incremental vs full rescan: %s", seed, d)
			return false
		}
		if broken != nil {
			t.Logf("seed %d: %v", seed, broken)
			return false
		}
		return true
	}, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickResetEquivalentToNewSim: on random models, a simulator that has
// already run — to a different end, under a different stream — and is then
// Reset must replay exactly what a fresh NewSim does from the same stream,
// and its bookkeeping must be consistent with the marking it ends in.
// Every other replica is cut short by Tmax, tokens mid-way and timed
// activities still armed: the state Reset has to undo from what the
// replica touched alone.
func TestQuickResetEquivalentToNewSim(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		model, done := buildRandomModel(rng.New(seed))
		stop := func(mk *Marking) bool { return mk.Get(done) >= 25 }
		reused := NewSim(model, rng.New(seed+99))
		reused.Run(7, nil) // leave tokens, armed activities and watch lists behind
		for k := uint64(0); k < 8; k++ {
			tmax := []float64{40, 1.5}[k%2]
			full := k/2%2 == 1 // the reference is rewound too, and switched to and from
			fresh := NewSim(model, rng.New(seed^k))
			fresh.SetFullRescan(full)
			want := firingTrace(fresh, tmax, stop)
			if k >= 4 {
				reused.Reset(rng.New(seed)) // a Reset nothing runs after
			}
			reused.Reset(rng.New(seed ^ k))
			reused.SetFullRescan(full)
			if d := diffTraces(firingTrace(reused, tmax, stop), want); d != "" {
				t.Logf("seed %d, replica %d (full rescan %v): reset vs fresh: %s", seed, k, full, d)
				return false
			}
			if err := checkQuiescent(reused); err != nil && !full {
				t.Logf("seed %d, replica %d: %v", seed, k, err)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMarkingsNonNegative: markings never go negative under any
// random trajectory (the engine would panic; this asserts it does not).
func TestQuickMarkingsNonNegative(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		gen := rng.New(seed)
		model, _ := buildRandomModel(gen)
		s := NewSim(model, rng.New(seed))
		s.Run(20, nil)
		for _, p := range model.Places() {
			if s.Marking().Get(p) < 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeterminism: identical seeds give identical trajectories.
func TestQuickDeterminism(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		gen := rng.New(seed)
		model, done := buildRandomModel(gen)
		run := func() (float64, uint64) {
			s := NewSim(model, rng.New(seed))
			at, _ := s.Run(30, func(mk *Marking) bool { return mk.Get(done) >= 10 })
			return at, s.Fired()
		}
		t1, f1 := run()
		t2, f2 := run()
		return t1 == t2 && f1 == f2
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
