package san

import (
	"math"
	"strings"
	"testing"

	"ctsan/internal/dist"
	"ctsan/internal/rng"
)

func TestBuilderValidation(t *testing.T) {
	t.Run("duplicate place name", func(t *testing.T) {
		m := NewModel("m")
		m.Place("p", 0)
		defer expectPanic(t, "duplicate")
		m.Place("p", 0)
	})
	t.Run("duplicate activity name", func(t *testing.T) {
		m := NewModel("m")
		m.Timed("a", Fixed(dist.Det(1))).Input(m.Place("p", 1))
		defer expectPanic(t, "duplicate")
		m.Instant("a", 0)
	})
	t.Run("negative initial marking", func(t *testing.T) {
		m := NewModel("m")
		defer expectPanic(t, "negative")
		m.Place("p", -1)
	})
	t.Run("timed without delay", func(t *testing.T) {
		m := NewModel("m")
		defer expectPanic(t, "delay")
		m.Timed("a", nil)
	})
	t.Run("activity without inputs", func(t *testing.T) {
		m := NewModel("m")
		m.Timed("a", Fixed(dist.Det(1)))
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "no input") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("case probabilities must sum to 1", func(t *testing.T) {
		m := NewModel("m")
		a := m.Timed("a", Fixed(dist.Det(1))).Input(m.Place("p", 1))
		a.Case(0.3)
		a.Case(0.3)
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "sum") {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("valid model", func(t *testing.T) {
		m := NewModel("m")
		m.Timed("a", Fixed(dist.Det(1))).Input(m.Place("p", 1)).Output(m.Place("q", 0))
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

func expectPanic(t *testing.T, substr string) {
	t.Helper()
	r := recover()
	if r == nil {
		t.Fatalf("expected panic containing %q", substr)
	}
}

func TestNamespaceJoin(t *testing.T) {
	m := NewModel("root")
	shared := m.Place("shared", 1)
	a := m.Namespace("A")
	b := m.Namespace("B")
	pa := a.Place("p", 0)
	pb := b.Place("p", 0) // same short name, different namespace
	if pa.Name() != "A.p" || pb.Name() != "B.p" {
		t.Fatalf("namespaced names: %q %q", pa.Name(), pb.Name())
	}
	a.Timed("t", Fixed(dist.Det(1))).Input(shared).Output(pa)
	b.Timed("t", Fixed(dist.Det(2))).Input(shared).Output(pb)
	if len(m.Places()) != 3 || len(m.Activities()) != 2 {
		t.Fatalf("join produced %d places, %d activities", len(m.Places()), len(m.Activities()))
	}
	nested := a.Namespace("X")
	if p := nested.Place("q", 0); p.Name() != "A.X.q" {
		t.Fatalf("nested namespace name %q", p.Name())
	}
}

// TestChainTiming: a deterministic two-stage chain completes at the sum of
// the stage delays.
func TestChainTiming(t *testing.T) {
	m := NewModel("chain")
	p0 := m.Place("p0", 1)
	p1 := m.Place("p1", 0)
	p2 := m.Place("p2", 0)
	m.Timed("a01", Fixed(dist.Det(1.5))).Input(p0).Output(p1)
	m.Timed("a12", Fixed(dist.Det(2.5))).Input(p1).Output(p2)
	s := NewSim(m, rng.New(1))
	at, stopped := s.Run(100, func(mk *Marking) bool { return mk.Get(p2) == 1 })
	if !stopped || at != 4 {
		t.Fatalf("chain completed at %v (stopped %v), want 4", at, stopped)
	}
}

// TestResourceHolding: two customers through a seize/serve single server
// finish at t=1 and t=2, not both at t=1.
func TestResourceHolding(t *testing.T) {
	m := NewModel("server")
	q := m.Place("q", 2)
	res := m.Place("res", 1)
	busy := m.Place("busy", 0)
	done := m.Place("done", 0)
	m.Instant("seize", 0).Input(q, res).Output(busy)
	m.Timed("serve", Fixed(dist.Det(1))).Input(busy).Output(res, done)
	s := NewSim(m, rng.New(1))
	at, stopped := s.Run(100, func(mk *Marking) bool { return mk.Get(done) == 2 })
	if !stopped || at != 2 {
		t.Fatalf("two customers done at %v, want 2 (serialized service)", at)
	}
}

// TestInstantPriority: the higher-priority instantaneous activity consumes
// the contested token.
func TestInstantPriority(t *testing.T) {
	m := NewModel("prio")
	p := m.Place("p", 1)
	lo := m.Place("lo", 0)
	hi := m.Place("hi", 0)
	m.Instant("low", 1).Input(p).Output(lo)
	m.Instant("high", 2).Input(p).Output(hi)
	s := NewSim(m, rng.New(1))
	s.Run(1, nil)
	if s.Marking().Get(hi) != 1 || s.Marking().Get(lo) != 0 {
		t.Fatalf("priority violated: hi=%d lo=%d", s.Marking().Get(hi), s.Marking().Get(lo))
	}
}

// TestFIFOSelection: with equal priorities, the activity whose queue token
// arrived first wins the resource.
func TestFIFOSelection(t *testing.T) {
	m := NewModel("fifo")
	qa := m.Place("qa", 0)
	qb := m.Place("qb", 0)
	res := m.Place("res", 1)
	ares := m.Place("aDone", 0)
	bres := m.Place("bDone", 0)
	feedA := m.Place("feedA", 1)
	feedB := m.Place("feedB", 1)
	// b's token arrives at t=1, a's at t=2; despite "seizeA" being created
	// first, b must win.
	m.Timed("arriveB", Fixed(dist.Det(1))).Input(feedB).Output(qb)
	m.Timed("arriveA", Fixed(dist.Det(2))).Input(feedA).Output(qa)
	// Block the resource until t=3 so both tokens are waiting.
	hold := m.Place("hold", 0)
	m.Instant("grab", 5).Input(res).InputGate("once", []*Place{hold},
		func(mk *Marking) bool { return mk.Get(hold) == 0 && mk.Get(qa)+mk.Get(qb) == 0 }, nil).
		OutputGate("mark", func(mk *Marking) { mk.Set(hold, 1) })
	m.Timed("release", Fixed(dist.Det(3))).Input(hold).Output(res)
	m.Instant("seizeA", 0).Input(qa, res).FIFO(qa).Output(ares)
	m.Instant("seizeB", 0).Input(qb, res).FIFO(qb).Output(bres)
	s := NewSim(m, rng.New(1))
	s.Run(10, func(mk *Marking) bool { return mk.Get(ares)+mk.Get(bres) > 0 })
	if s.Marking().Get(bres) != 1 {
		t.Fatalf("FIFO violated: a=%d b=%d", s.Marking().Get(ares), s.Marking().Get(bres))
	}
}

// TestCaseProbabilities: case selection respects probabilities.
func TestCaseProbabilities(t *testing.T) {
	m := NewModel("cases")
	src := m.Place("src", 1)
	a := m.Place("a", 0)
	b := m.Place("b", 0)
	act := m.Timed("act", Fixed(dist.Det(0.01))).Input(src)
	act.Case(0.3).Output(a, src)
	act.Case(0.7).Output(b, src)
	s := NewSim(m, rng.New(4))
	const total = 20000
	s.Run(1e9, func(mk *Marking) bool { return mk.Get(a)+mk.Get(b) >= total })
	frac := float64(s.Marking().Get(a)) / total
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("case-1 fraction %v, want 0.3", frac)
	}
}

// TestDisableCancelsActivity: a timed activity that loses its enabling is
// aborted; UltraSAN reactivation semantics.
func TestDisableCancelsActivity(t *testing.T) {
	m := NewModel("cancel")
	p := m.Place("p", 1)
	stolen := m.Place("stolen", 0)
	slowDone := m.Place("slowDone", 0)
	m.Timed("slow", Fixed(dist.Det(10))).Input(p).Output(slowDone)
	// A faster activity steals the token at t=1.
	trigger := m.Place("trigger", 1)
	m.Timed("thief", Fixed(dist.Det(1))).Input(trigger, p).Output(stolen)
	s := NewSim(m, rng.New(1))
	s.Run(100, nil)
	if s.Marking().Get(slowDone) != 0 || s.Marking().Get(stolen) != 1 {
		t.Fatalf("slow=%d stolen=%d; slow activity should have been aborted",
			s.Marking().Get(slowDone), s.Marking().Get(stolen))
	}
}

// TestKeepsClockWhileEnabled: an armed activity that stays enabled keeps
// its completion time even when unrelated places change.
func TestKeepsClockWhileEnabled(t *testing.T) {
	m := NewModel("clock")
	p := m.Place("p", 1)
	done := m.Place("done", 0)
	noise := m.Place("noise", 1)
	noiseOut := m.Place("noiseOut", 0)
	m.Timed("main", Fixed(dist.Det(5))).Input(p).Output(done)
	m.Timed("noisy", Fixed(dist.Det(1))).Input(noise).Output(noiseOut)
	s := NewSim(m, rng.New(1))
	at, stopped := s.Run(100, func(mk *Marking) bool { return mk.Get(done) == 1 })
	if !stopped || at != 5 {
		t.Fatalf("main completed at %v, want 5", at)
	}
}

func TestInstantLoopPanics(t *testing.T) {
	m := NewModel("loop")
	p := m.Place("p", 1)
	m.Instant("spin", 0).Input(p).Output(p) // fires forever
	s := NewSim(m, rng.New(1))
	s.instLimit = 1000
	defer expectPanic(t, "loop")
	s.Run(1, nil)
}

func TestNegativeMarkingPanics(t *testing.T) {
	m := NewModel("neg")
	p := m.Place("p", 1)
	q := m.Place("q", 1)
	m.Instant("bad", 0).Input(q).OutputGate("og", func(mk *Marking) { mk.Add(p, -2) })
	s := NewSim(m, rng.New(1))
	defer expectPanic(t, "negative")
	s.Run(1, nil)
}

func TestOnFireObserver(t *testing.T) {
	m := NewModel("obs")
	p := m.Place("p", 3)
	sink := m.Place("sink", 0)
	m.Timed("a", Fixed(dist.Det(1))).Input(p).Output(sink)
	s := NewSim(m, rng.New(1))
	var names []string
	s.OnFire(func(a *Activity, caseIdx int) { names = append(names, a.Name()) })
	s.Run(100, nil)
	if len(names) != 3 {
		t.Fatalf("observer saw %d firings, want 3", len(names))
	}
	if s.Fired() != 3 {
		t.Fatalf("Fired() = %d", s.Fired())
	}
}

func TestEnabledActivities(t *testing.T) {
	m := NewModel("en")
	p := m.Place("p", 1)
	q := m.Place("q", 0)
	m.Timed("on", Fixed(dist.Det(1))).Input(p)
	m.Timed("off", Fixed(dist.Det(1))).Input(q)
	s := NewSim(m, rng.New(1))
	got := s.EnabledActivities()
	if len(got) != 1 || got[0] != "on" {
		t.Fatalf("enabled = %v", got)
	}
}

func TestMarkingFIFOArrivals(t *testing.T) {
	m := NewModel("arr")
	p := m.Place("p", 2)
	// Arrival order is kept for FIFO keys only: declare p one, on an
	// activity that never completes.
	m.Instant("never", 0).Input(p, m.Place("closed", 0)).FIFO(p)
	s := NewSim(m, rng.New(1))
	mk := s.Marking()
	if got := mk.OldestArrival(p); got != 0 {
		t.Fatalf("initial arrival %v", got)
	}
	mk.now = 5
	mk.Add(p, 1)
	mk.Add(p, -2) // the two initial tokens leave first
	if got := mk.OldestArrival(p); got != 5 {
		t.Fatalf("oldest after FIFO pops = %v, want 5", got)
	}
	mk.Add(p, -1)
	if got := mk.OldestArrival(p); !math.IsInf(got, 1) {
		t.Fatalf("empty place arrival = %v, want +Inf", got)
	}
}

// TestTimedArmingOrder pins the one schedule-dependent thing the simulator
// exposes: the order in which timed activities draw their delays. In the
// first settle it is creation order, whatever instantaneous completions
// enabled them; afterwards it is the order in which a completion's writes
// reach them (the completing activity itself first, then the dependents of
// each written place in write order).
func TestTimedArmingOrder(t *testing.T) {
	m := NewModel("order")
	pa := m.Place("pa", 0)
	pb := m.Place("pb", 1)
	pc := m.Place("pc", 0)
	pd := m.Place("pd", 0)
	src := m.Place("src", 1)
	kick := m.Place("kick", 1)
	m.Timed("a", Fixed(dist.Exp(1))).Input(pa) // enabled by "start" during the first settle
	m.Timed("b", Fixed(dist.Exp(1))).Input(pb) // enabled by the initial marking
	m.Timed("c", Fixed(dist.Exp(1))).Input(pc)
	m.Timed("d", Fixed(dist.Exp(1))).Input(pd)
	m.Timed("late", Fixed(dist.Det(100))).Input(src).Output(pd, pc) // writes pd before pc
	m.Instant("start", 0).Input(kick).Output(pa)

	const seed = 7
	r := rng.New(seed)
	want := map[string]float64{}
	for _, name := range []string{"a", "b"} { // first settle: creation order, not b (listed) before a (touched)
		want[name] = dist.Exp(1).Sample(r)
	}
	for _, name := range []string{"d", "c"} { // at t=100: write order, not creation order
		want[name] = 100 + dist.Exp(1).Sample(r)
	}
	for _, full := range []bool{false, true} {
		s := NewSim(m, rng.New(seed))
		s.SetFullRescan(full)
		got := map[string]float64{}
		s.OnFire(func(a *Activity, _ int) { got[a.Name()] = s.Now() })
		s.Run(1e6, nil)
		for name, at := range want {
			if got[name] != at {
				t.Errorf("full rescan %v: %s completed at %v, want %v", full, name, got[name], at)
			}
		}
	}
}

// TestFIFOKeyWrittenByGates: arrival order is kept for a FIFO key whoever
// writes it. Both queues are filled by output gates — b's at t=1, a's at
// t=2 — and qa is, besides the key of seizeA, a plain input arc of an
// activity that never completes. When the resource comes back at t=3, b
// was first.
func TestFIFOKeyWrittenByGates(t *testing.T) {
	m := NewModel("fifo-gates")
	qa := m.Place("qa", 0)
	qb := m.Place("qb", 0)
	res := m.Place("res", 0)
	aDone := m.Place("aDone", 0)
	bDone := m.Place("bDone", 0)
	m.Timed("fillB", Fixed(dist.Det(1))).Input(m.Place("feedB", 1)).
		OutputGate("putB", func(mk *Marking) { mk.Add(qb, 1) })
	m.Timed("fillA", Fixed(dist.Det(2))).Input(m.Place("feedA", 1)).
		OutputGate("putA", func(mk *Marking) { mk.Set(qa, 1) })
	m.Timed("release", Fixed(dist.Det(3))).Input(m.Place("held", 1)).Output(res)
	m.Instant("seizeA", 0).Input(qa, res).FIFO(qa).Output(aDone)
	m.Instant("seizeB", 0).Input(qb, res).FIFO(qb).Output(bDone)
	m.Instant("never", 0).Input(qa, m.Place("closed", 0))
	s := NewSim(m, rng.New(1))
	for replica := 0; replica < 2; replica++ { // fresh, then rewound
		s.Run(10, func(mk *Marking) bool { return mk.Get(aDone)+mk.Get(bDone) > 0 })
		if s.Marking().Get(bDone) != 1 {
			t.Fatalf("replica %d: FIFO violated: a=%d b=%d", replica, s.Marking().Get(aDone), s.Marking().Get(bDone))
		}
		if got := s.Marking().OldestArrival(qa); got != 2 {
			t.Fatalf("replica %d: oldest arrival in qa = %v, want 2", replica, got)
		}
		s.Reset(rng.New(1))
	}
	defer expectPanic(t, "FIFO key")
	s.Marking().OldestArrival(res) // nobody's key: no arrival order is kept
}
