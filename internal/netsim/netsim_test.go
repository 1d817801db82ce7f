package netsim

import (
	"math"
	"sort"
	"testing"

	"ctsan/internal/dist"
	"ctsan/internal/neko"
	"ctsan/internal/rng"
)

// pingStack builds a minimal stack that records deliveries through a Tap.
// The tests send kind-less messages, which reach the tap and are then
// dropped by the stack.
func pingStack(ctx neko.Context, got *[]neko.Message) *neko.Stack {
	s := neko.NewStack(ctx)
	s.Tap(func(m *neko.Message) { *got = append(*got, *m) })
	return s
}

// onDeliver observes every message a live process receives, through a
// Tap on each attached stack, with the instant of delivery.
func onDeliver(c *Cluster, fn func(m *neko.Message, at float64)) {
	for _, h := range c.hosts {
		h.stack.Tap(func(m *neko.Message) { fn(m, c.Now()) })
	}
}

// newTestCluster builds a 3-host cluster with stacks that record inbound
// messages per process.
func newTestCluster(t *testing.T, params Params) (*Cluster, []*[]neko.Message) {
	t.Helper()
	if params.N == 0 {
		params.N = 3
	}
	c, err := New(params, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	inboxes := make([]*[]neko.Message, params.N+1)
	for i := 1; i <= params.N; i++ {
		var inbox []neko.Message
		inboxes[i] = &inbox
		c.Attach(neko.ProcessID(i), pingStack(c.Context(neko.ProcessID(i)), inboxes[i]))
	}
	return c, inboxes
}

func TestValidation(t *testing.T) {
	if _, err := New(Params{N: 0}, rng.New(1)); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := New(Params{N: 3, Crashed: []neko.ProcessID{7}}, rng.New(1)); err == nil {
		t.Error("out-of-range crash accepted")
	}
}

func TestEndToEndDelayMatchesDecomposition(t *testing.T) {
	// Deterministic parameters: e2e must equal tsend + twire + treceive.
	params := Params{
		N:          2,
		TSend:      dist.Det(0.025),
		TReceive:   dist.Det(0.025),
		TWire:      dist.Det(0.09),
		GridProb:   0,
		KernelLate: dist.Det(0),
		ClockSkew:  dist.Det(0),
	}
	c, _ := newTestCluster(t, params)
	var deliveredAt float64
	onDeliver(c, func(_ *neko.Message, at float64) { deliveredAt = at })
	c.Start()
	ctx := c.Context(1)
	c.StartAt(1, 1.0, func() {
		ctx.Send(neko.Message{To: 2})
	})
	c.RunUntil(10)
	want := 1.0 + 0.025 + 0.09 + 0.025
	if math.Abs(deliveredAt-want) > 1e-9 {
		t.Fatalf("delivered at %v, want %v (Fig. 3 decomposition)", deliveredAt, want)
	}
}

func TestHubSerializes(t *testing.T) {
	// Two messages sent simultaneously from different hosts must occupy
	// the medium one after the other.
	params := Params{
		N:          3,
		TSend:      dist.Det(0.01),
		TReceive:   dist.Det(0.01),
		TWire:      dist.Det(0.1),
		GridProb:   0,
		KernelLate: dist.Det(0),
		ClockSkew:  dist.Det(0),
	}
	c, _ := newTestCluster(t, params)
	var times []float64
	onDeliver(c, func(_ *neko.Message, at float64) { times = append(times, at) })
	c.Start()
	for _, src := range []neko.ProcessID{1, 2} {
		src := src
		ctx := c.Context(src)
		c.StartAt(src, 0, func() { ctx.Send(neko.Message{To: 3}) })
	}
	c.RunUntil(10)
	if len(times) != 2 {
		t.Fatalf("deliveries: %d", len(times))
	}
	sort.Float64s(times)
	if gap := times[1] - times[0]; math.Abs(gap-0.1) > 1e-9 {
		t.Fatalf("delivery gap %v, want one wire time (0.1): shared medium must serialize", gap)
	}
}

func TestSenderCPUSerializes(t *testing.T) {
	params := Params{
		N:          3,
		TSend:      dist.Det(0.05),
		TReceive:   dist.Det(0.001),
		TWire:      dist.Det(0.001),
		GridProb:   0,
		KernelLate: dist.Det(0),
		ClockSkew:  dist.Det(0),
	}
	c, _ := newTestCluster(t, params)
	type rec struct {
		to neko.ProcessID
		at float64
	}
	var recs []rec
	onDeliver(c, func(m *neko.Message, at float64) { recs = append(recs, rec{m.To, at}) })
	c.Start()
	ctx := c.Context(1)
	c.StartAt(1, 0, func() {
		neko.Broadcast(ctx, neko.Message{})
	})
	c.RunUntil(10)
	if len(recs) != 2 {
		t.Fatalf("deliveries %d", len(recs))
	}
	// Ascending ID order (p2 first), separated by at least t_send.
	if recs[0].to != 2 || recs[1].to != 3 {
		t.Fatalf("broadcast order: %+v", recs)
	}
	if gap := recs[1].at - recs[0].at; gap < 0.05-1e-9 {
		t.Fatalf("broadcast gap %v < t_send: sender CPU must serialize unicasts", gap)
	}
}

func TestCrashDropsDeliveryAndSkipsWire(t *testing.T) {
	params := DefaultParams(3)
	params.Crashed = []neko.ProcessID{2}
	c, inboxes := newTestCluster(t, params)
	c.Start()
	ctx := c.Context(1)
	c.StartAt(1, 0, func() {
		ctx.Send(neko.Message{To: 2})
		ctx.Send(neko.Message{To: 3})
	})
	c.RunUntil(50)
	if len(*inboxes[2]) != 0 {
		t.Fatal("crashed process received a message")
	}
	if len(*inboxes[3]) != 1 {
		t.Fatalf("live process got %d messages, want 1", len(*inboxes[3]))
	}
}

func TestCrashAtStopsTimers(t *testing.T) {
	c, _ := newTestCluster(t, Params{N: 2})
	fired := 0
	ctx := c.Context(1)
	c.Start()
	c.StartAt(1, 0, func() {
		ctx.SetTimer(5, func() { fired++ })
		ctx.SetTimer(50, func() { fired++ })
	})
	c.CrashAt(1, 20)
	c.RunUntil(200)
	if fired != 1 {
		t.Fatalf("timer fires after crash: fired=%d, want 1", fired)
	}
}

func TestTimerStop(t *testing.T) {
	c, _ := newTestCluster(t, Params{N: 2})
	fired := false
	ctx := c.Context(1)
	c.Start()
	c.StartAt(1, 0, func() {
		h := ctx.SetTimer(5, func() { fired = true })
		ctx.SetTimer(1, func() { h.Stop() })
	})
	c.RunUntil(100)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestClockSkewWithinBounds(t *testing.T) {
	params := DefaultParams(5)
	c, err := New(params, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		off := c.Context(neko.ProcessID(i)).Now() - c.Now()
		if math.Abs(off) > 0.05 {
			t.Fatalf("p%d clock offset %v exceeds ±50 µs (§4)", i, off)
		}
	}
}

func TestStartAtAlignsLocalClocks(t *testing.T) {
	c, _ := newTestCluster(t, Params{N: 3})
	c.Start()
	var locals []float64
	for i := 1; i <= 3; i++ {
		ctx := c.Context(neko.ProcessID(i))
		c.StartAt(neko.ProcessID(i), 5.0, func() { locals = append(locals, ctx.Now()) })
	}
	c.RunUntil(50)
	if len(locals) != 3 {
		t.Fatalf("started %d processes", len(locals))
	}
	for _, l := range locals {
		if math.Abs(l-5.0) > 1e-9 {
			t.Fatalf("local start time %v, want 5.0 on the local clock", l)
		}
	}
}

func TestSendToSelfPanics(t *testing.T) {
	c, _ := newTestCluster(t, Params{N: 2})
	ctx := c.Context(1)
	defer func() {
		if recover() == nil {
			t.Fatal("send to self did not panic")
		}
	}()
	ctx.Send(neko.Message{To: 1})
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		params := DefaultParams(3)
		c, err := New(params, rng.New(77))
		if err != nil {
			t.Fatal(err)
		}
		var times []float64
		for i := 1; i <= 3; i++ {
			var sink []neko.Message
			c.Attach(neko.ProcessID(i), pingStack(c.Context(neko.ProcessID(i)), &sink))
		}
		onDeliver(c, func(_ *neko.Message, at float64) { times = append(times, at) })
		c.Start()
		ctx := c.Context(1)
		c.StartAt(1, 0, func() {
			for k := 0; k < 20; k++ {
				neko.Broadcast(ctx, neko.Message{})
			}
		})
		c.RunUntil(100)
		return times
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("trace lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic delivery time at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFailedSendCostsSenderCPU(t *testing.T) {
	params := Params{
		N:          3,
		TSend:      dist.Det(0.01),
		TReceive:   dist.Det(0.01),
		TWire:      dist.Det(0.01),
		FailedSend: dist.Det(0.5),
		Crashed:    []neko.ProcessID{2},
		GridProb:   0,
		KernelLate: dist.Det(0),
		ClockSkew:  dist.Det(0),
	}
	c, _ := newTestCluster(t, params)
	var deliveredAt float64
	onDeliver(c, func(_ *neko.Message, at float64) { deliveredAt = at })
	c.Start()
	ctx := c.Context(1)
	c.StartAt(1, 0, func() {
		ctx.Send(neko.Message{To: 2}) // fails fast, costs 0.5 CPU
		ctx.Send(neko.Message{To: 3})
	})
	c.RunUntil(10)
	// p3's message waits for the failed-send CPU slot: 0.5 + 0.01 + 0.01 + 0.01.
	if want := 0.53; math.Abs(deliveredAt-want) > 1e-9 {
		t.Fatalf("delivery at %v, want %v (failed send must delay later sends, §5.3)", deliveredAt, want)
	}
}

func TestPausesDeferTimers(t *testing.T) {
	params := Params{
		N:            2,
		PauseEvery:   dist.Det(1),  // first pause at t=1
		PauseDur:     dist.Det(10), // freeze until t=11
		GridProb:     0,
		KernelLate:   dist.Det(0),
		ThreadJitter: dist.Det(0),
		ClockSkew:    dist.Det(0),
	}
	c, _ := newTestCluster(t, params)
	var firedAt float64
	ctx := c.Context(1)
	c.Start()
	c.StartAt(1, 0, func() {
		ctx.SetTimer(2, func() { firedAt = c.Now() })
	})
	c.RunUntil(100)
	if firedAt < 11 {
		t.Fatalf("timer fired at %v during a host pause [1,11]", firedAt)
	}
}

func TestAttachTwicePanics(t *testing.T) {
	c, _ := newTestCluster(t, Params{N: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("double attach did not panic")
		}
	}()
	var sink []neko.Message
	c.Attach(1, pingStack(c.Context(1), &sink))
}
