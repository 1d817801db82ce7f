package netsim

import (
	"testing"

	"ctsan/internal/dist"
	"ctsan/internal/neko"
	"ctsan/internal/rng"
)

// ping is a probe; pingPongStack answers it with a kind-less pong.
var ping = neko.Message{Payload: neko.Payload{Kind: neko.PayloadProbe}}

// pingPongStack builds a stack on process id that echoes a pong back for
// every inbound ping, generating cross-host traffic through CPU, hub and
// timers. Pongs carry no kind: they reach the taps and are dropped.
func pingPongStack(c *Cluster, id neko.ProcessID) *neko.Stack {
	s := neko.NewStack(c.Context(id))
	ctx := c.Context(id)
	s.Handle(neko.PayloadProbe, func(m *neko.Message) {
		ctx.Send(neko.Message{To: m.From})
	})
	return s
}

// exerciseCluster drives one deterministic workload against c — sends,
// broadcasts, timers that are stopped and timers that fire, background
// pauses — and returns the full delivery trace. Every Reset-restorable
// feature is on the path.
func exerciseCluster(c *Cluster) []float64 {
	var trace []float64
	for id := neko.ProcessID(1); int(id) <= c.Params().N; id++ {
		c.Attach(id, pingPongStack(c, id))
	}
	onDeliver(c, func(_ *neko.Message, at float64) { trace = append(trace, at) })
	c.Start()
	ctx1 := c.Context(1)
	c.StartAt(1, 0, func() {
		for k := 0; k < 5; k++ {
			neko.Broadcast(ctx1, ping)
		}
		// A timer that fires, re-arming once, and a timer that is stopped:
		// both sides of the pooled record life cycle.
		var rearmed bool
		var tick func()
		tick = func() {
			neko.Broadcast(ctx1, ping)
			if !rearmed {
				rearmed = true
				ctx1.SetTimer(7, tick)
			}
		}
		ctx1.SetTimer(5, tick)
		ctx1.SetTimer(1e6, func() { panic("stopped timer fired") }).Stop()
	})
	c.RunUntil(200)
	return trace
}

// resetParams enables every stochastic feature Reset must redraw:
// background pauses and clock skew (always on).
func resetParams(n int) Params {
	p := Params{N: n}
	p.PauseEvery = dist.Exp(40)
	return p
}

// TestClusterResetMatchesFresh is the reset ≡ fresh differential (the
// san/reset_test.go treatment): a reused, Reset cluster must replay the
// exact delivery trace a freshly constructed cluster produces from the
// same stream — same instants, same event counts.
func TestClusterResetMatchesFresh(t *testing.T) {
	reused, err := New(resetParams(3), rng.New(999))
	if err != nil {
		t.Fatal(err)
	}
	for id := neko.ProcessID(1); id <= 3; id++ {
		reused.Attach(id, pingPongStack(reused, id))
	}
	var got []float64 // the stacks, and so their taps, survive Reset
	onDeliver(reused, func(_ *neko.Message, at float64) { got = append(got, at) })
	for seed := uint64(1); seed <= 30; seed++ {
		fresh, err := New(resetParams(3), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		want := exerciseCluster(fresh)
		if len(want) == 0 {
			t.Fatal("workload delivered nothing — strengthen the exercise")
		}

		reused.Reset(rng.New(seed))
		got = got[:0]
		reused.Start()
		ctx1 := reused.Context(1)
		reused.StartAt(1, 0, func() {
			for k := 0; k < 5; k++ {
				neko.Broadcast(ctx1, ping)
			}
			var rearmed bool
			var tick func()
			tick = func() {
				neko.Broadcast(ctx1, ping)
				if !rearmed {
					rearmed = true
					ctx1.SetTimer(7, tick)
				}
			}
			ctx1.SetTimer(5, tick)
			ctx1.SetTimer(1e6, func() { panic("stopped timer fired") }).Stop()
		})
		reused.RunUntil(200)

		if len(got) != len(want) {
			t.Fatalf("seed %d: reset trace has %d deliveries, fresh %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: delivery %d at %v on reset cluster, %v fresh (bit-exact)", seed, i, got[i], want[i])
			}
		}
		if reused.Steps() != fresh.Steps() || reused.Delivered() != fresh.Delivered() {
			t.Fatalf("seed %d: steps/delivered %d/%d on reset cluster, %d/%d fresh",
				seed, reused.Steps(), reused.Delivered(), fresh.Steps(), fresh.Delivered())
		}
	}
}

// TestClusterResetRestoresInjectionState: injections of a previous
// replica — crashes, partitions, link rules, phase observers — must not
// leak through Reset.
func TestClusterResetRestoresInjectionState(t *testing.T) {
	c, err := New(Params{N: 3}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for id := neko.ProcessID(1); id <= 3; id++ {
		c.Attach(id, pingPongStack(c, id))
	}
	c.OnPhase(func(string, float64) { t.Fatal("phase observer leaked through Reset") })
	c.CrashAt(2, 10)
	if err := c.PartitionAt(20, []neko.ProcessID{1}, []neko.ProcessID{2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLinkAt(0, 1, 3, dist.Det(50), 1.0); err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.RunUntil(50)
	if !c.Down(2) {
		t.Fatal("crash injection did not land")
	}

	c.Reset(rng.New(2))
	if c.Down(2) {
		t.Fatal("crash state leaked through Reset")
	}
	ctx := c.Context(1)
	c.PhaseAt(5, "leak-check") // fires; the old observer must be gone
	c.StartAt(1, 0, func() {
		ctx.Send(neko.Message{To: 2, Payload: ping.Payload}) // crosses the old partition boundary
		ctx.Send(neko.Message{To: 3, Payload: ping.Payload}) // crosses the old degraded link
	})
	before := c.Delivered()
	c.RunUntil(100)
	// Both pings and both pongs must arrive: no partition, loss or crash
	// in force.
	if n := c.Delivered() - before; n != 4 {
		t.Fatalf("delivered %d messages after Reset, want 4 (injection state leaked)", n)
	}
}

// TestTimerSteadyStateAllocs pins the pooled timer path, mirroring
// des.TestScheduleSteadyStateAllocs: once the pools are warm, an
// arm→stop cycle and an arm→fire cycle both perform zero heap
// allocations (the detector's per-message re-arm is the hot path).
func TestTimerSteadyStateAllocs(t *testing.T) {
	c, err := New(Params{N: 2}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	h := c.Context(1)
	fn := func() {}
	// Warm the pools.
	for i := 0; i < 64; i++ {
		h.SetTimer(1, fn).Stop()
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		h.SetTimer(1, fn).Stop()
	}); allocs > 0 {
		t.Fatalf("steady-state arm+stop allocates %.1f objects/op, want 0", allocs)
	}
	// Fire path, the way the protocols drive it (fd.Heartbeat's emit and
	// armTimer): the fired handle is stopped — recycling its record —
	// before the next arm. A fired record is only reclaimed through Stop
	// (or Cluster.Reset), because the executor cannot know whether the
	// holder still has the handle.
	var last neko.TimerHandle
	for i := 0; i < 8; i++ { // warm the fire-call pool
		if last != nil {
			last.Stop()
		}
		last = h.SetTimer(0, fn)
		c.Run(nil)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		last.Stop()
		last = h.SetTimer(0, fn)
		c.Run(nil)
	}); allocs > 0 {
		t.Fatalf("steady-state stop+arm+fire allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSendSteadyStateAllocs pins the pooled delivery path: a payload-free
// message through sender CPU → hub → receiver CPU → dispatch allocates
// nothing once the pools are warm.
func TestSendSteadyStateAllocs(t *testing.T) {
	c, err := New(Params{N: 2}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	stack := neko.NewStack(c.Context(2))
	stack.Tap(func(*neko.Message) { got++ })
	c.Attach(2, stack)
	c.Start()
	ctx := c.Context(1)
	for i := 0; i < 64; i++ { // warm the pools
		ctx.Send(neko.Message{To: 2})
		c.Run(nil)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		ctx.Send(neko.Message{To: 2})
		c.Run(nil)
	}); allocs > 0 {
		t.Fatalf("steady-state send+deliver allocates %.1f objects/op, want 0", allocs)
	}
	if got == 0 {
		t.Fatal("messages were not delivered")
	}
}

// TestPayloadSteadyStateAllocs pins the de-boxed payload round-trip: a
// message carrying a full protocol payload (flat union, no `any` box)
// through send → hub → kind-indexed dispatch allocates nothing once the
// pools are warm. This is the contract that lets the consensus and
// heartbeat engines push typed bodies on every wire message for free.
func TestPayloadSteadyStateAllocs(t *testing.T) {
	c, err := New(Params{N: 2}, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	stack := neko.NewStack(c.Context(2))
	stack.Handle(neko.PayloadEstimate, func(m *neko.Message) {
		got += m.Payload.Seq + uint64(m.Payload.Round) + uint64(m.Payload.Val)
	})
	c.Attach(2, stack)
	c.Start()
	ctx := c.Context(1)
	send := func(i uint64) {
		ctx.Send(neko.Message{To: 2, Payload: neko.Payload{
			Kind: neko.PayloadEstimate, Cid: i, Seq: i, Round: 3, Val: int64(i), TS: 1,
		}})
		c.Run(nil)
	}
	for i := uint64(0); i < 64; i++ { // warm the pools
		send(i)
	}
	i := uint64(64)
	if allocs := testing.AllocsPerRun(1000, func() {
		send(i)
		i++
	}); allocs > 0 {
		t.Fatalf("steady-state payload round-trip allocates %.1f objects/op, want 0", allocs)
	}
	if got == 0 {
		t.Fatal("payloads were not delivered")
	}
}

// TestTimerStaleStopAfterReset: the Reset contract says outstanding
// handles die wholesale; a defensive Stop on one must at least not
// disturb the reused cluster (it is a documented misuse, but the
// defensive path keeps it a no-op rather than corruption).
func TestTimerStaleStopAfterReset(t *testing.T) {
	c, err := New(Params{N: 2}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	h := c.Context(1)
	stale := h.SetTimer(100, func() { t.Fatal("pre-reset timer fired") })
	c.Reset(rng.New(6))
	stale.Stop() // must be a no-op: the record was reclaimed by Reset
	fired := false
	h2 := c.Context(1)
	h2.SetTimer(1, func() { fired = true })
	c.Run(nil)
	if !fired {
		t.Fatal("stale Stop cancelled a post-Reset timer")
	}
}

// clusterWorkload runs the benchmark replica body: a burst of broadcasts
// plus timer churn on an attached 3-host cluster.
func clusterWorkload(c *Cluster) {
	ctx := c.Context(1)
	c.StartAt(1, 0, func() {
		for k := 0; k < 5; k++ {
			neko.Broadcast(ctx, ping)
		}
	})
	c.RunUntil(50)
}

// BenchmarkClusterReset is the replica body with cluster reuse: rewind
// and rerun one assembly per replica.
func BenchmarkClusterReset(b *testing.B) {
	c, err := New(Params{N: 3}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	for id := neko.ProcessID(1); id <= 3; id++ {
		c.Attach(id, pingPongStack(c, id))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset(rng.New(uint64(i) + 1))
		c.Start()
		clusterWorkload(c)
	}
}

// BenchmarkClusterNewPerReplica is the pre-Reset baseline: construct a
// fresh cluster and stacks per replica.
func BenchmarkClusterNewPerReplica(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := New(Params{N: 3}, rng.New(uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		for id := neko.ProcessID(1); id <= 3; id++ {
			c.Attach(id, pingPongStack(c, id))
		}
		c.Start()
		clusterWorkload(c)
	}
}

// Params returns the effective (defaulted) parameters.
func (c *Cluster) Params() Params { return c.params }
