package sanmodel

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ctsan/internal/rng"
	"ctsan/internal/san"
)

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Params{N: 1}); err == nil {
		t.Error("n=1 accepted")
	}
	p := DefaultParams(3)
	p.TSend = 0
	if _, err := Build(p); err == nil {
		t.Error("zero t_send accepted")
	}
	p = DefaultParams(3)
	p.NetUnicast = nil
	if _, err := Build(p); err == nil {
		t.Error("missing network distribution accepted")
	}
	p = DefaultParams(3)
	p.Crashed = []int{1, 2}
	if _, err := Build(p); err == nil {
		t.Error("majority violation accepted")
	}
	p = DefaultParams(3)
	p.Crashed = []int{9}
	if _, err := Build(p); err == nil {
		t.Error("out-of-range crash accepted")
	}
	if _, err := Build(DefaultParams(5)); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestClass1Decides(t *testing.T) {
	for _, n := range []int{2, 3, 5, 7} {
		res, err := SimulateContext(context.Background(), DefaultParams(n), 50, 1e6, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated != 0 {
			t.Fatalf("n=%d: %d truncated replicas in a failure-free run", n, res.Truncated)
		}
		if res.Digest.Mean() <= 0 {
			t.Fatalf("n=%d: non-positive latency", n)
		}
	}
}

func TestLatencyGrowsWithN(t *testing.T) {
	means := map[int]float64{}
	for _, n := range []int{3, 5, 7} {
		res, err := SimulateContext(context.Background(), DefaultParams(n), 400, 1e6, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		means[n] = res.Digest.Mean()
	}
	if !(means[3] < means[5] && means[5] < means[7]) {
		t.Fatalf("latency not increasing in n: %v (contention model broken)", means)
	}
}

// TestTable1Directions asserts the §5.3 simulation findings: the
// coordinator crash adds a round and increases latency; the participant
// crash decreases it (broadcast is a single message, so even at n=3).
func TestTable1Directions(t *testing.T) {
	for _, n := range []int{3, 5} {
		base, err := SimulateContext(context.Background(), DefaultParams(n), 600, 1e6, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		pc := DefaultParams(n)
		pc.Crashed = []int{1}
		coord, err := SimulateContext(context.Background(), pc, 600, 1e6, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		pp := DefaultParams(n)
		pp.Crashed = []int{2}
		part, err := SimulateContext(context.Background(), pp, 600, 1e6, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if coord.Digest.Mean() <= base.Digest.Mean() {
			t.Errorf("n=%d: coordinator crash %.3f !> no crash %.3f", n, coord.Digest.Mean(), base.Digest.Mean())
		}
		if part.Digest.Mean() >= base.Digest.Mean() {
			t.Errorf("n=%d: participant crash %.3f !< no crash %.3f (single-broadcast model, §5.3)", n, part.Digest.Mean(), base.Digest.Mean())
		}
	}
}

// TestCrashedNeverDecides: a crashed process's Decided place stays empty.
func TestCrashedNeverDecides(t *testing.T) {
	p := DefaultParams(3)
	p.Crashed = []int{2}
	model, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	sim := san.NewSim(model.SAN, rng.New(4))
	_, stopped := sim.Run(1e6, model.Done)
	if !stopped {
		t.Fatal("run did not decide")
	}
	if sim.Marking().Get(model.Decided[1]) != 0 {
		t.Fatal("crashed process decided")
	}
	if sim.Marking().Get(model.Decided[0]) == 0 && sim.Marking().Get(model.Decided[2]) == 0 {
		t.Fatal("no correct process decided")
	}
}

// TestFDQoSMonotonicity: worse failure-detector QoS (smaller T_MR) must
// not make consensus faster.
func TestFDQoSMonotonicity(t *testing.T) {
	lat := func(tmr float64) float64 {
		p := DefaultParams(3)
		if tmr > 0 {
			p.FD = FDModel{TMR: tmr, TM: 2, Kind: FDExponential}
		}
		res, err := SimulateContext(context.Background(), p, 800, 1e6, 9, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest.Mean()
	}
	clean := lat(0)
	good := lat(500)
	bad := lat(8)
	if bad <= good*1.05 {
		t.Fatalf("bad QoS latency %.3f not clearly above good QoS %.3f", bad, good)
	}
	if good < clean*0.9 {
		t.Fatalf("good-QoS latency %.3f below failure-free %.3f", good, clean)
	}
}

func TestFDKindsDiffer(t *testing.T) {
	mean := func(kind FDDistKind) float64 {
		p := DefaultParams(3)
		p.FD = FDModel{TMR: 10, TM: 3, Kind: kind}
		res, err := SimulateContext(context.Background(), p, 600, 1e6, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest.Mean()
	}
	det := mean(FDDeterministic)
	exp := mean(FDExponential)
	if det == exp {
		t.Fatal("det and exp FD models produced identical means (suspicious)")
	}
}

func TestInvalidFDPanics(t *testing.T) {
	p := DefaultParams(3)
	p.FD = FDModel{TMR: 5, TM: 9} // TM > TMR
	defer func() {
		if recover() == nil {
			t.Fatal("TM > TMR accepted")
		}
	}()
	_, _ = Build(p)
	model, _ := Build(p)
	_ = model
}

// TestRoundsGuard: with all processes suspecting each other through an
// impossible QoS and a guard of four rounds, most replicas are ended by
// the guard, not by a decision. Every one of them must be accounted for —
// kept, truncated or discarded — and identically at any worker count.
func TestRoundsGuard(t *testing.T) {
	p := DefaultParams(3)
	p.FD = FDModel{TMR: 1.0, TM: 0.98, Kind: FDDeterministic} // almost always suspected
	p.MaxRoundsGuard = 4
	const replicas = 200
	var ref *san.TransientResult
	for _, workers := range []int{1, 2, 8} {
		res, err := SimulateContext(context.Background(), p, replicas, 1e5, 7, workers)
		if err != nil {
			t.Fatal(err)
		}
		if res.Discarded == 0 {
			t.Fatalf("workers=%d: the rounds guard never tripped", workers)
		}
		if got := res.Digest.N() + res.Truncated + res.Discarded; got != replicas {
			t.Fatalf("workers=%d: %d kept + %d truncated + %d discarded = %d, want %d replicas",
				workers, res.Digest.N(), res.Truncated, res.Discarded, got, replicas)
		}
		if ref == nil {
			ref = res
		} else if res.Discarded != ref.Discarded || res.Truncated != ref.Truncated || !reflect.DeepEqual(res.Digest.Exact(), ref.Digest.Exact()) {
			t.Fatalf("workers=%d: %d kept, %d truncated, %d discarded; one worker had %d, %d, %d",
				workers, res.Digest.N(), res.Truncated, res.Discarded, ref.Digest.N(), ref.Truncated, ref.Discarded)
		}
	}
}

// TestDepTrackingMatchesFullRescan is the differential test for the
// incremental simulator on the model it was built for: across n, the
// three run classes and both modeling ablations, it must complete the
// same activities with the same cases in the same order as the
// full-rescan reference, and leave the same activities enabled after
// every completion. A gate with an incomplete Reads declaration, or a
// seizer the watch lists lost track of, parts the two traces.
func TestDepTrackingMatchesFullRescan(t *testing.T) {
	expFD := FDModel{TMR: 15, TM: 2, Kind: FDExponential}
	cases := []struct {
		name  string
		seeds uint64
		p     func() Params
	}{
		{"class1-n3", 6, func() Params { return DefaultParams(3) }},
		{"class1-n7", 3, func() Params { return DefaultParams(7) }},
		{"class2-n5-coordinator", 4, func() Params {
			p := DefaultParams(5)
			p.Crashed = []int{1}
			return p
		}},
		{"class2-n7-participant", 3, func() Params {
			p := DefaultParams(7)
			p.Crashed = []int{3}
			return p
		}},
		{"class3-n3-det", 6, func() Params {
			p := DefaultParams(3)
			p.FD = FDModel{TMR: 10, TM: 3, Kind: FDDeterministic}
			return p
		}},
		{"class3-n5-exp", 12, func() Params {
			p := DefaultParams(5)
			p.FD = expFD
			return p
		}},
		{"class3-n7-exp", 3, func() Params {
			p := DefaultParams(7)
			p.FD = expFD
			return p
		}},
		{"unicast-broadcast-n3-crash2", 6, func() Params {
			p := DefaultParams(3)
			p.UnicastBroadcast = true
			p.Crashed = []int{2}
			return p
		}},
		{"unicast-broadcast-n5-exp", 4, func() Params {
			p := DefaultParams(5)
			p.UnicastBroadcast = true
			p.FD = expFD
			return p
		}},
		{"fd-correlated-n5-exp", 4, func() Params {
			p := DefaultParams(5)
			p.FDCorrelated = true
			p.FD = expFD
			return p
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			model, err := Build(c.p())
			if err != nil {
				t.Fatal(err)
			}
			run := func(full bool, seed uint64) []string {
				sim := san.NewSim(model.SAN, rng.New(seed))
				sim.SetFullRescan(full)
				var trace []string
				sim.OnFire(func(a *san.Activity, caseIdx int) {
					trace = append(trace, fmt.Sprintf("%s/%d -> %s", a.Name(), caseIdx, strings.Join(sim.EnabledActivities(), ",")))
				})
				at, stopped := sim.Run(1e6, model.Done)
				if !stopped {
					t.Fatal("did not stop")
				}
				return append(trace, fmt.Sprintf("end t=%v fired=%d", at, sim.Fired()))
			}
			for seed := uint64(1); seed <= c.seeds; seed++ {
				got, want := run(false, seed), run(true, seed)
				for i := 0; i < len(got) && i < len(want); i++ {
					if got[i] != want[i] {
						t.Fatalf("seed %d, completion %d:\n  incremental %s\n  full rescan %s", seed, i, got[i], want[i])
					}
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d completions, full rescan %d", seed, len(got)-1, len(want)-1)
				}
			}
		})
	}
}

func TestModelNaming(t *testing.T) {
	model, err := Build(DefaultParams(3))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(model.SAN.Name(), "n3") {
		t.Errorf("model name %q", model.SAN.Name())
	}
	if len(model.Decided) != 3 || len(model.RoundOf) != 3 {
		t.Fatalf("handles: %d decided, %d rounds", len(model.Decided), len(model.RoundOf))
	}
}

func TestBroadcastScaleGrows(t *testing.T) {
	if !(broadcastScale(3) < broadcastScale(5) && broadcastScale(5) < broadcastScale(11)) {
		t.Fatal("broadcast scale must grow with n (Fig. 6)")
	}
}
