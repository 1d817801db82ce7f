package experiment

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ctsan/internal/dist"
	"ctsan/internal/neko"
	"ctsan/internal/netsim"
	"ctsan/internal/sanmodel"
	"ctsan/internal/stats"
	"ctsan/internal/trace"
)

// The SAN model and the emulated cluster are one queueing network: with
// every delay deterministic they compute the same consensus latency, to
// the last bit the float sums allow, once the two modelling choices that
// separate them are aligned. Those two are switches: the SAN sends a
// broadcast as n−1 unicasts (sanmodel.Params.UnicastBroadcast) instead of
// the paper's one message with a larger t_net, and the emulator charges a
// frame to a crashed peer the full path through the hub
// (netsim.Params.CrashedConsumeWire) instead of only the sender's
// fail-fast CPU. These tests pin that agreement and what each switch
// alone is worth, so a structural change to either engine fails here
// with a number rather than as drift in a ledger row.

// The deterministic setting: every CPU cost and every network draw at
// its §5.1 mean.
const (
	zvCPU        = 0.025  // t_send = t_receive, ms
	zvWire       = 0.0915 // a unicast's t_net: hub occupancy per frame, ms
	zvFailedSend = 0.15   // the sender's CPU for a send that fails fast, ms
)

// zeroVariance returns the deterministic setting of both engines for n
// processes with the given ones crashed, the switches left off. Every
// netsim noise source is zeroed by an explicit value, because a nil
// distribution takes netsim's default.
func zeroVariance(n int, crashed []int) (netsim.Params, sanmodel.Params) {
	emu := netsim.Params{
		N:            n,
		TSend:        dist.Det(zvCPU),
		TReceive:     dist.Det(zvCPU),
		TWire:        dist.Det(zvWire),
		ThreadJitter: dist.Det(0),
		KernelLate:   dist.Det(0),
		WakeTail:     dist.Det(0),
		ClockSkew:    dist.Det(0),
		FailedSend:   dist.Det(zvFailedSend),
	}
	// sanmodel's broadcastScale: the paper's single broadcast message
	// occupies the network 1 + (n−1)/4 times as long as a unicast.
	scale := 1 + 0.25*float64(n-1)
	model := sanmodel.Params{
		N:            n,
		TSend:        zvCPU,
		TReceive:     zvCPU,
		NetUnicast:   dist.Det(zvWire),
		NetBroadcast: dist.Det(zvWire * scale),
		Crashed:      crashed,
	}
	return emu, model
}

// emulatedLatency is the emulator's consensus latency in the setting,
// with every execution required to take the same time.
func emulatedLatency(t *testing.T, emu netsim.Params, crashed []int) float64 {
	t.Helper()
	spec := LatencySpec{N: emu.N, Params: emu, Executions: 12, Seed: 1}
	for _, id := range crashed {
		spec.Crashed = append(spec.Crashed, neko.ProcessID(id))
	}
	res, err := RunLatencyContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	d := &res.Digest
	if d.N() != spec.Executions || res.Aborted != 0 || d.Max()-d.Min() > 1e-9 {
		t.Fatalf("emulator n=%d crashed=%v: %d executions decided (%d aborted) over [%v, %v]; want all %d at one latency",
			emu.N, crashed, d.N(), res.Aborted, d.Min(), d.Max(), spec.Executions)
	}
	return d.Mean()
}

// modelLatency is the SAN model's consensus latency in the setting, with
// every replica required to take the same time.
func modelLatency(t *testing.T, model sanmodel.Params) float64 {
	t.Helper()
	const replicas = 12
	res, err := sanmodel.SimulateContext(context.Background(), model, replicas, 1e6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := &res.Digest
	if d.N() != replicas || d.Max()-d.Min() > 1e-9 {
		t.Fatalf("SAN n=%d crashed=%v unicast=%v: %d replicas decided over [%v, %v]; want all %d at one latency",
			model.N, model.Crashed, model.UnicastBroadcast, d.N(), d.Min(), d.Max(), replicas)
	}
	return d.Mean()
}

// TestEnginesAgreeUnderZeroVariance: for n = 3…11, fault-free (class 1)
// and with the coordinator or a participant crashed from the start
// (class 2), the emulator with CrashedConsumeWire and the SAN with
// UnicastBroadcast compute the same latency to 1e-9. Each engine with
// its switch off gives what that modelling choice alone is worth,
// pinned to 1e-9 as computed when the test was written.
func TestEnginesAgreeUnderZeroVariance(t *testing.T) {
	// latencies are one case's four readings, ms.
	type latencies struct {
		paperSAN   float64 // the SAN as the paper built it
		unicastSAN float64 // the SAN with UnicastBroadcast
		failFast   float64 // the emulator's default: a frame to a dead peer skips the hub
		fullPath   float64 // the emulator with CrashedConsumeWire
	}
	for _, tc := range []struct {
		name    string
		crashed []int
		want    map[int]latencies // by n
	}{
		{"class 1", nil, map[int]latencies{
			3:  {0.51175, 0.5075, 0.5075, 0.5075},
			5:  {0.832, 0.965, 0.965, 0.965},
			7:  {1.15225, 1.514, 1.514, 1.514},
			9:  {1.4725, 2.063, 2.063, 2.063},
			11: {1.79275, 2.612, 2.612, 2.612},
		}},
		{"coordinator crashed", []int{1}, map[int]latencies{
			3:  {0.83625, 0.882, 0.8745, 0.882},
			5:  {1.4725, 1.6055, 1.1905, 1.6055},
			7:  {2.15875, 2.5205, 1.648, 2.5205},
			9:  {2.845, 3.4355, 2.18, 3.4355},
			11: {3.53125, 4.3505, 2.729, 4.3505},
		}},
		{"participant crashed", []int{2}, map[int]latencies{
			3:  {0.47025, 0.516, 0.5745, 0.516},
			5:  {0.7405, 1.0565, 0.8905, 1.0565},
			7:  {1.06075, 1.7885, 1.2565, 1.7885},
			9:  {1.381, 2.5205, 1.697, 2.5205},
			11: {1.70125, 3.2525, 2.1545, 3.2525},
		}},
	} {
		for _, n := range []int{3, 5, 7, 9, 11} {
			t.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(t *testing.T) {
				emu, model := zeroVariance(n, tc.crashed)
				var got latencies
				got.paperSAN = modelLatency(t, model)
				model.UnicastBroadcast = true
				got.unicastSAN = modelLatency(t, model)
				got.failFast = emulatedLatency(t, emu, tc.crashed)
				emu.CrashedConsumeWire = true
				got.fullPath = emulatedLatency(t, emu, tc.crashed)
				if math.Abs(got.unicastSAN-got.fullPath) > 1e-9 {
					t.Errorf("aligned engines disagree: SAN with UnicastBroadcast %.12f, emulator with CrashedConsumeWire %.12f", got.unicastSAN, got.fullPath)
				}
				want := tc.want[n]
				for _, c := range []struct {
					what      string
					got, want float64
				}{
					{"the paper's SAN", got.paperSAN, want.paperSAN},
					{"the SAN with UnicastBroadcast", got.unicastSAN, want.unicastSAN},
					{"the default emulator", got.failFast, want.failFast},
					{"the emulator with CrashedConsumeWire", got.fullPath, want.fullPath},
				} {
					if math.Abs(c.got-c.want) > 1e-9 {
						t.Errorf("%s: %.12f ms, want %.12f", c.what, c.got, c.want)
					}
				}
			})
		}
	}
}

// TestClassOneLatencyIsHubFrames: fault-free and without variance, the
// emulated latency is k(n) frames through the one shared hub plus the
// first send's and the last receive's CPU — every other CPU cost
// overlaps a frame — with k = 5, 10, 16, 22, 28 at n = 3…11: 3n − 5 from
// n = 5 on, and 5 rather than 4 at n = 3.
func TestClassOneLatencyIsHubFrames(t *testing.T) {
	for n, k := range map[int]int{3: 5, 5: 10, 7: 16, 9: 22, 11: 28} {
		emu, _ := zeroVariance(n, nil)
		want := float64(k)*zvWire + 2*zvCPU
		if got := emulatedLatency(t, emu, nil); math.Abs(got-want) > 1e-9 {
			t.Errorf("n=%d: latency %.12f ms, want %d·%v + 2·%v = %.12f", n, got, k, zvWire, zvCPU, want)
		}
	}
}

// TestClassOneFramesByKind counts k(n) of TestClassOneLatencyIsHubFrames
// by message kind: the deliveries, on any process, at or before the
// first decision of one fault-free execution without variance. The
// coordinator p1 receives all n−1 round-1 estimates, broadcasts n−1
// proposals and decides on (n−1)/2 acks, which with its own make a
// majority. A participant starts round 2 as it acks, sending its estimate
// to p2, and from n = 5 on (n−1)/2 − 2 of those reach the hub ahead of
// the deciding ack, so k(n) = (n−1) + (n−1)/2 + (3(n−1)/2 − 2) = 3n − 5
// (proposals, acks, estimates). At n = 3 that last term would need −1
// round-2 estimates: both round-1 estimates still reach p1, one more
// than the formula counts, so k(3) = 5, not 4.
func TestClassOneFramesByKind(t *testing.T) {
	type frames struct{ estimates, proposals, acks, decides int }
	want := map[int]frames{
		3:  {2, 2, 1, 0},
		5:  {4, 4, 2, 0},
		7:  {7, 6, 3, 0},
		9:  {10, 8, 4, 0},
		11: {13, 10, 5, 0},
	}
	for _, n := range []int{3, 5, 7, 9, 11} {
		emu, _ := zeroVariance(n, nil)
		shape := Shape{Params: emu}
		h, err := NewHarness(shape)
		if err != nil {
			t.Fatal(err)
		}
		tr := trace.New(0)
		plan := Plan{Label: "frames", Seed: 1, Executions: 1, Prepare: func() error { h.SetTracer(tr); return nil }}
		if err := Check(&shape, &plan); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Run(context.Background(), plan); err != nil {
			t.Fatal(err)
		}
		byKind, delivered := map[string]int{}, 0
		for _, e := range tr.Snapshot().Events {
			if e.Kind == trace.KindDecide {
				break
			}
			if e.Kind == trace.KindDeliver {
				byKind[e.S]++
				delivered++
			}
		}
		got := frames{
			estimates: byKind[neko.PayloadEstimate.String()],
			proposals: byKind[neko.PayloadPropose.String()],
			acks:      byKind[neko.PayloadAck.String()],
			decides:   byKind[neko.PayloadDecide.String()],
		}
		if got != want[n] || delivered != got.estimates+got.proposals+got.acks+got.decides {
			t.Errorf("n=%d: deliveries before the first decision %v, want %+v and nothing else", n, byKind, want[n])
		}
	}
}

// TestEnginesAgreeInDistribution: with variance back on, the emulator at
// its calibrated defaults and the SAN with UnicastBroadcast draw class-1
// latencies from one distribution at n = 3…11. The emulator's clock skew
// is zeroed: it is drawn once per run, so at these campaign sizes it
// shifts a whole sample and rejects at n = 7, 9, 11. The bound is the
// two-sample Kolmogorov–Smirnov critical value at α = 0.001 for 2000
// against 2000 samples, 1.949·√(2/2000). The SAN as the paper built it,
// with one broadcast message, must be rejected at every n: the test has
// the power to see the modelling choice.
func TestEnginesAgreeInDistribution(t *testing.T) {
	const samples = 2000
	bound := 1.949 * math.Sqrt(2.0/samples)
	for _, n := range []int{3, 5, 7, 9, 11} {
		emu := netsim.DefaultParams(n)
		emu.ClockSkew = dist.Det(0)
		res, err := RunLatencyContext(context.Background(), LatencySpec{N: n, Params: emu, Executions: samples, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		emulated := &res.Digest
		model := sanmodel.DefaultParams(n)
		distance := func(unicast bool) float64 {
			model.UnicastBroadcast = unicast
			san, err := sanmodel.SimulateContext(context.Background(), model, samples, 1e6, 9, 1)
			if err != nil {
				t.Fatal(err)
			}
			if emulated.Exact() == nil || san.Digest.Exact() == nil || emulated.N() != samples || san.Digest.N() != samples {
				t.Fatalf("n=%d: %d emulated and %d SAN latencies, want %d exact each", n, emulated.N(), san.Digest.N(), samples)
			}
			return stats.KSDistance(emulated.ECDF(), san.Digest.ECDF())
		}
		if d := distance(true); d >= bound {
			t.Errorf("n=%d: KS distance %.4f between the emulator and the SAN with UnicastBroadcast, want < %.4f", n, d, bound)
		}
		if d := distance(false); d < bound {
			t.Errorf("n=%d: KS distance %.4f between the emulator and the paper's SAN, want >= %.4f (no power)", n, d, bound)
		}
	}
}
