package campaign

import (
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"ctsan/internal/fit"
	"ctsan/internal/sanmodel"
)

// paperNet is §5.1's unicast fit with a wider broadcast one.
var paperNet = NetFit{
	Unicast:   fit.Bimodal{P1: 0.8, Lo1: 0.1, Hi1: 0.13, Lo2: 0.145, Hi2: 0.35},
	Broadcast: fit.Bimodal{P1: 0.7, Lo1: 0.15, Hi1: 0.2, Lo2: 0.22, Hi2: 0.5},
}

// TestNetFitShiftsTheModelNetwork: a SANPoint carrying a network fit runs
// bit-identically to the model built by hand the way the paper derives
// it — each fit shifted by −2·t_send, floored at 0.001 ms — before and
// after the study crosses the spec format. The second point's t_send is
// large enough for the floor to bite.
func TestNetFitShiftsTheModelNetwork(t *testing.T) {
	net := paperNet
	points := []SANPoint{
		{N: 5, Replicas: 200, Net: &net, Crashed: []int{1}, Tmax: 1e6, Seed: 7},
		{N: 3, Replicas: 200, TSend: 0.06, Net: &net, Tmax: 1e6, Seed: 8},
	}
	study := NewStudy("net")
	for _, p := range points {
		study.Add(p)
	}
	spec, err := EncodeStudy(study)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeStudy(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Study{study, decoded} {
		results, err := RunCollect(context.Background(), s, WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range points {
			params := sanmodel.DefaultParams(p.N)
			if p.TSend > 0 {
				params.TSend, params.TReceive = p.TSend, p.TSend
			}
			params.NetUnicast = net.Unicast.Shift(2*params.TSend, 0.001).Dist()
			params.NetBroadcast = net.Broadcast.Shift(2*params.TSend, 0.001).Dist()
			params.Crashed = p.Crashed
			ref, err := sanmodel.SimulateContext(context.Background(), params, p.Replicas, p.Tmax, p.Seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(results[i].Samples(), ref.Digest.Exact()) || results[i].Aborted != ref.Truncated+ref.Discarded {
				t.Errorf("%s point %d: differs from the hand-built model with the shifted fits", s.Name, i)
			}
		}
	}
}

// TestNetFitRejectedAtFreeze: a fit arrives from outside (a spec file, a
// POST), and the distributions built from it panic on values no delay
// can have. Freeze rejects them, naming the fit, and Run returns the
// error instead of panicking.
func TestNetFitRejectedAtFreeze(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(b *fit.Bimodal)
	}{
		{"NaN probability", func(b *fit.Bimodal) { b.P1 = math.NaN() }},
		{"probability above 1", func(b *fit.Bimodal) { b.P1 = 1.5 }},
		{"negative probability", func(b *fit.Bimodal) { b.P1 = -0.1 }},
		{"negative bound", func(b *fit.Bimodal) { b.Lo1 = -0.01 }},
		{"-Inf bound", func(b *fit.Bimodal) { b.Lo2 = math.Inf(-1) }},
		{"+Inf bound", func(b *fit.Bimodal) { b.Hi2 = math.Inf(1) }},
		{"NaN bound", func(b *fit.Bimodal) { b.Hi1 = math.NaN() }},
		{"first mode Lo > Hi", func(b *fit.Bimodal) { b.Lo1, b.Hi1 = 0.13, 0.1 }},
		{"second mode Lo > Hi", func(b *fit.Bimodal) { b.Lo2, b.Hi2 = 0.35, 0.145 }},
	} {
		for _, which := range []string{"unicast", "broadcast"} {
			net := paperNet
			if which == "unicast" {
				tc.spoil(&net.Unicast)
			} else {
				tc.spoil(&net.Broadcast)
			}
			study := NewStudy("bad-net", SANPoint{N: 3, Replicas: 5}, SANPoint{N: 3, Replicas: 5, Net: &net})
			want := which + " delay fit"
			if _, err := Frozen(study); err == nil || !strings.Contains(err.Error(), "point 1") || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %s: Frozen error %v, want point 1 rejected naming the %s", which, tc.name, err, want)
			}
			if err := Run(context.Background(), study, WithWorkers(1)); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %s: Run error %v, want %q", which, tc.name, err, want)
			}
		}
	}
	// A degenerate but buildable fit — one mode, a point mass — is a
	// network all the same.
	net := NetFit{Unicast: fit.Bimodal{P1: 1, Lo1: 0.1, Hi1: 0.1, Lo2: 0.2, Hi2: 0.2}, Broadcast: paperNet.Broadcast}
	if _, err := Frozen(NewStudy("edge", SANPoint{N: 3, Replicas: 5, Net: &net})); err != nil {
		t.Errorf("buildable fit rejected: %v", err)
	}
}

// TestNetLessPointHashUnchanged pins PointHash of SANPoints without a
// network fit to the values they had before the field existed, so every
// spec, cache key and checkpoint record written since stays valid: Net
// is omitted from the encoding when nil.
func TestNetLessPointHashUnchanged(t *testing.T) {
	for want, p := range map[string]SANPoint{
		"sha256:802a86b2d7e86e47a489dfe833da0dc3020188bb4b27be22b8776fd06759878a": {N: 5, Replicas: 200, TSend: 0.02, Crashed: []int{1}, Tmax: 1e6, Seed: 7},
		"sha256:b8a2d8e8a7d7089759db5a03cef2fc2094b02a7a687731f37fc208f141f56155": {N: 3},
	} {
		if got, err := PointHash(p); err != nil || got != want {
			t.Errorf("PointHash(%+v) = %s, %v; want %s", p, got, err, want)
		}
		net := paperNet
		p.Net = &net
		if got, _ := PointHash(p); got == want {
			t.Errorf("PointHash(%+v) ignores the network fit", p)
		}
	}
}
