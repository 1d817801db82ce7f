package netsim

import (
	"math"
	"testing"

	"ctsan/internal/dist"
	"ctsan/internal/neko"
	"ctsan/internal/rng"
)

// detParams returns fully deterministic parameters so injection tests can
// assert exact delivery instants.
func detParams(n int) Params {
	return Params{
		N:            n,
		TSend:        dist.Det(0.01),
		TReceive:     dist.Det(0.01),
		TWire:        dist.Det(0.01),
		Tail:         dist.Det(0),
		GridProb:     0,
		KernelLate:   dist.Det(0),
		ThreadJitter: dist.Det(0),
		ClockSkew:    dist.Det(0),
		FailedSend:   dist.Det(0.01),
	}
}

func TestCrashRecoverRoundTrip(t *testing.T) {
	c, inboxes := newTestCluster(t, detParams(2))
	c.CrashAt(2, 10)
	c.RecoverAt(2, 20)
	c.Start()
	ctx := c.Context(1)
	send := func(at float64) {
		c.AtGlobal(at, func() { ctx.Send(neko.Message{To: 2, Type: "ping"}) })
	}
	send(5)  // before the crash: delivered
	send(15) // while down: fails fast at the sender
	send(25) // after recovery: delivered again
	c.RunUntil(100)
	if got := len(*inboxes[2]); got != 2 {
		t.Fatalf("deliveries to p2 across crash/recover = %d, want 2", got)
	}
	if c.Down(2) {
		t.Fatal("p2 still reported down after RecoverAt")
	}
}

func TestRecoverRestartsStack(t *testing.T) {
	c, err := New(detParams(2), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	starts := 0
	s := neko.NewStack(c.Context(2))
	s.AddLayer(startCounter{&starts})
	c.Attach(2, s)
	var sink []neko.Message
	c.Attach(1, pingStack(c.Context(1), &sink))
	c.CrashAt(2, 10)
	c.RecoverAt(2, 20)
	c.Start()
	c.RunUntil(100)
	if starts != 2 {
		t.Fatalf("stack started %d times, want 2 (boot + recovery)", starts)
	}
}

type startCounter struct{ n *int }

func (s startCounter) Start() { *s.n++ }

func TestCrashWipesPendingTimers(t *testing.T) {
	c, _ := newTestCluster(t, detParams(2))
	fired := 0
	ctx := c.Context(1)
	c.Start()
	c.StartAt(1, 0, func() {
		ctx.SetTimer(50, func() { fired++ }) // armed pre-crash, due post-recovery
	})
	c.CrashAt(1, 10)
	c.RecoverAt(1, 20)
	c.RunUntil(200)
	if fired != 0 {
		t.Fatalf("pre-crash timer fired %d times after recovery, want 0", fired)
	}
}

func TestTimersArmedAfterRecoveryFire(t *testing.T) {
	c, _ := newTestCluster(t, detParams(2))
	fired := 0
	ctx := c.Context(1)
	c.CrashAt(1, 10)
	c.RecoverAt(1, 20)
	c.Start()
	c.AtGlobal(30, func() { ctx.SetTimer(5, func() { fired++ }) })
	c.RunUntil(200)
	if fired != 1 {
		t.Fatalf("post-recovery timer fired %d times, want 1", fired)
	}
}

func TestPartitionDropsAcrossGroupsOnly(t *testing.T) {
	c, inboxes := newTestCluster(t, detParams(4))
	if err := c.PartitionAt(10, []neko.ProcessID{1, 2}, []neko.ProcessID{3, 4}); err != nil {
		t.Fatal(err)
	}
	c.Start()
	ctx := c.Context(1)
	c.AtGlobal(20, func() {
		ctx.Send(neko.Message{To: 2, Type: "ping"}) // same group: delivered
		ctx.Send(neko.Message{To: 3, Type: "ping"}) // across: dropped at hub
	})
	c.RunUntil(100)
	if got := len(*inboxes[2]); got != 1 {
		t.Fatalf("same-group deliveries = %d, want 1", got)
	}
	if got := len(*inboxes[3]); got != 0 {
		t.Fatalf("cross-partition deliveries = %d, want 0", got)
	}
}

func TestPartitionImplicitGroupAndHeal(t *testing.T) {
	// p3 is unlisted: it joins the implicit group, isolated from both
	// listed groups. After HealAt everything flows again.
	c, inboxes := newTestCluster(t, detParams(3))
	if err := c.PartitionAt(10, []neko.ProcessID{1}, []neko.ProcessID{2}); err != nil {
		t.Fatal(err)
	}
	c.HealAt(30)
	c.Start()
	ctx := c.Context(1)
	send := func(at float64, to neko.ProcessID) {
		c.AtGlobal(at, func() { ctx.Send(neko.Message{To: to, Type: "ping"}) })
	}
	send(20, 2) // partitioned
	send(20, 3) // implicit group is isolated from group 1 too
	send(40, 2) // healed
	send(40, 3) // healed
	c.RunUntil(100)
	if got := len(*inboxes[2]); got != 1 {
		t.Fatalf("p2 deliveries = %d, want 1 (only post-heal)", got)
	}
	if got := len(*inboxes[3]); got != 1 {
		t.Fatalf("p3 deliveries = %d, want 1 (only post-heal)", got)
	}
}

func TestPartitionValidation(t *testing.T) {
	c, _ := newTestCluster(t, detParams(3))
	if err := c.PartitionAt(0, []neko.ProcessID{7}); err == nil {
		t.Error("out-of-range partition member accepted")
	}
	if err := c.PartitionAt(0, []neko.ProcessID{1}, []neko.ProcessID{1}); err == nil {
		t.Error("process in two groups accepted")
	}
}

func TestLinkLossAndClear(t *testing.T) {
	c, inboxes := newTestCluster(t, detParams(2))
	// Loss 1 on p1→p2: everything dropped until the rule is cleared.
	if err := c.SetLinkAt(0, 1, 2, nil, 1.0); err != nil {
		t.Fatal(err)
	}
	c.ClearLinkAt(30, 1, 2)
	c.Start()
	ctx := c.Context(1)
	c.AtGlobal(10, func() { ctx.Send(neko.Message{To: 2, Type: "ping"}) })
	c.AtGlobal(40, func() { ctx.Send(neko.Message{To: 2, Type: "ping"}) })
	c.RunUntil(100)
	if got := len(*inboxes[2]); got != 1 {
		t.Fatalf("deliveries = %d, want 1 (lossy rule then cleared)", got)
	}
}

func TestLinkExtraDelayIsDirected(t *testing.T) {
	c, _ := newTestCluster(t, detParams(2))
	if err := c.SetLinkAt(0, 1, 2, dist.Det(5), 0); err != nil {
		t.Fatal(err)
	}
	var at12, at21 float64
	c.Trace(func(m neko.Message, at float64) {
		if m.To == 2 {
			at12 = at
		} else {
			at21 = at
		}
	})
	c.Start()
	ctx1, ctx2 := c.Context(1), c.Context(2)
	c.AtGlobal(10, func() { ctx1.Send(neko.Message{To: 2, Type: "ping"}) })
	c.AtGlobal(10, func() { ctx2.Send(neko.Message{To: 1, Type: "ping"}) })
	c.RunUntil(100)
	// Base path is 0.03 ms; the degraded direction pays +5 ms. The reverse
	// frame waits for the hub (0.01 ms occupied by the first frame).
	if want := 10.0 + 0.03 + 5; math.Abs(at12-want) > 1e-9 {
		t.Fatalf("degraded direction delivered at %v, want %v", at12, want)
	}
	if at21 >= at12 || at21 > 10.1 {
		t.Fatalf("reverse direction delivered at %v: rule must be directed", at21)
	}
}

func TestLinkValidation(t *testing.T) {
	c, _ := newTestCluster(t, detParams(2))
	if err := c.SetLinkAt(0, 1, 9, nil, 0); err == nil {
		t.Error("out-of-range link accepted")
	}
	if err := c.SetLinkAt(0, 1, 2, nil, 1.5); err == nil {
		t.Error("loss probability > 1 accepted")
	}
}

func TestPauseAtDefersTimers(t *testing.T) {
	c, _ := newTestCluster(t, detParams(2))
	c.PauseAt(1, 5, 20) // CPU busy [5, 25)
	var firedAt float64
	ctx := c.Context(1)
	c.Start()
	c.StartAt(1, 0, func() {
		ctx.SetTimer(10, func() { firedAt = c.Now() })
	})
	c.RunUntil(100)
	if firedAt < 25 {
		t.Fatalf("timer fired at %v inside the injected pause [5,25)", firedAt)
	}
}

func TestPhaseHooks(t *testing.T) {
	c, _ := newTestCluster(t, detParams(2))
	type ev struct {
		name string
		at   float64
	}
	var got []ev
	c.OnPhase(func(name string, at float64) { got = append(got, ev{name, at}) })
	c.PhaseAt(15, "burst")
	c.PhaseAt(40, "calm")
	c.Start()
	c.RunUntil(100)
	if len(got) != 2 || got[0].name != "burst" || got[0].at != 15 || got[1].name != "calm" || got[1].at != 40 {
		t.Fatalf("phase transitions = %+v", got)
	}
}

// TestInjectionFreeRunUnperturbed pins the bit-identical-baseline claim:
// a run on the extended cluster with no injections produces exactly the
// same delivery trace as before the injection surface existed (the
// deterministic-trace test doubles as the cross-build anchor; here we
// assert a cluster with hooks available but unused matches one where the
// link stream was never touched).
func TestInjectionFreeRunUnperturbed(t *testing.T) {
	run := func(inject bool) []float64 {
		c, _ := newTestCluster(t, Params{N: 3})
		if inject {
			// Rules on links never used by the traffic below must not
			// perturb the delivery times of the used links.
			if err := c.SetLinkAt(0, 2, 3, dist.Det(9), 0.5); err != nil {
				t.Fatal(err)
			}
		}
		var times []float64
		c.Trace(func(m neko.Message, at float64) { times = append(times, at) })
		c.Start()
		ctx := c.Context(1)
		c.StartAt(1, 0, func() {
			for k := 0; k < 10; k++ {
				neko.Broadcast(ctx, neko.Message{Type: "ping"})
			}
		})
		c.RunUntil(100)
		return times
	}
	a, b := run(false), run(true)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("trace lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("unused link rule perturbed delivery %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Down reports whether process id is currently crashed.
func (c *Cluster) Down(id neko.ProcessID) bool { return c.hostFor(id).down }
