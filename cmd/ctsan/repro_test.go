package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ctsan/campaign"
	"ctsan/internal/experiment"
	"ctsan/internal/fd"
	"ctsan/internal/fit"
)

// fakeFits stands in for a calibration where only the shape of the
// studies matters.
func fakeFits(ns ...int) *experiment.Fits {
	fits := &experiment.Fits{
		Unicast:   fit.Bimodal{P1: 0.8, Lo1: 0.1, Hi1: 0.13, Lo2: 0.145, Hi2: 0.35},
		Broadcast: map[int]fit.Bimodal{},
	}
	for _, n := range ns {
		fits.Broadcast[n] = fit.Bimodal{P1: 0.7, Lo1: 0.1 * float64(n), Hi1: 0.13 * float64(n), Lo2: 0.15 * float64(n), Hi2: 0.4 * float64(n)}
	}
	return fits
}

// TestReproBuildsOnlyWhatItRenders: each -what selection calibrates only
// if it fits delays, and builds only the points its renderers read, each
// once — at quick fidelity `all` is 75 measurement campaigns (Fig. 7a's
// five no-crash ones are Table 1's first row), 12 simulations and 3
// probe campaigns.
func TestReproBuildsOnlyWhatItRenders(t *testing.T) {
	for _, tc := range []struct {
		sel            string
		probes         int // the unicast campaign plus one per broadcast size
		emulation, san int
	}{
		{"all", 3, 75, 12},
		{"fig6", 3, 0, 0},
		{"fig7a", 0, 5, 0},
		{"fig7b", 3, 1, 6},
		{"table1", 3, 15, 6},
		{"fig8", 0, 60, 0},
		{"fig9a", 0, 60, 0},
		{"fig9b", 3, 24, 0},
	} {
		r := &repro{f: experiment.QuickFidelity(), seed: 1, sel: tc.sel, fits: fakeFits(3, 5)}
		probes := 0
		if ns := r.fitNs(); ns != nil {
			probes = 1 + len(ns)
		}
		p := r.plan()
		count := map[campaign.Engine]int{}
		for _, pt := range p.Points {
			count[pt.Engine()]++
		}
		if probes != tc.probes || count[campaign.Emulation] != tc.emulation || count[campaign.SAN] != tc.san {
			t.Errorf("-what %s: %d probe campaigns, %d emulation and %d SAN points; want %d, %d and %d",
				tc.sel, probes, count[campaign.Emulation], count[campaign.SAN], tc.probes, tc.emulation, tc.san)
		}
		// Every point is read by some renderer, and no two are the same.
		read := slices.Concat(p.fig7a, p.fig7b, p.class3, slices.Concat(p.table1Meas...), slices.Concat(p.table1Sims...))
		hashes := map[string]int{}
		for i, pt := range p.Points {
			if !slices.Contains(read, i) {
				t.Errorf("-what %s: point %d (%s) is built but no renderer reads it", tc.sel, i, pt.Label())
			}
			h, err := campaign.PointHash(pt)
			if err != nil {
				t.Fatal(err)
			}
			if j, dup := hashes[h]; dup {
				t.Errorf("-what %s: points %d and %d are the same point", tc.sel, j, i)
			}
			hashes[h] = i
		}
	}
}

// TestReproFig9bStudy: Fig. 9b simulates, per class-3 point on a
// simulated size that kept a sample, the model fed with its QoS under
// both sojourn kinds — one point when the QoS leaves the detectors
// accurate, since the two kinds are then the same simulation.
func TestReproFig9bStudy(t *testing.T) {
	r := &repro{f: experiment.QuickFidelity(), seed: 1, sel: "fig9b", fits: fakeFits(3, 5)}
	sampled := func(q fd.QoS) *experiment.LatencyResult {
		res := &experiment.LatencyResult{QoS: q}
		res.Digest.Add(1)
		return res
	}
	mistakes := fd.QoS{TMR: 20, TM: 2, Transitions: 4}
	points := []experiment.Class3Point{
		{N: 3, T: 5, Res: sampled(mistakes)},                              // det + exp
		{N: 3, T: 30, Res: sampled(fd.QoS{TMR: 180})},                     // accurate: one point
		{N: 5, T: 1, Res: &experiment.LatencyResult{}},                    // every execution aborted
		{N: 7, T: 5, Res: sampled(mistakes)},                              // not a simulated size
		{N: 5, T: 7, Res: sampled(fd.QoS{TMR: 9, TM: 9, Transitions: 2})}, // TM >= TMR: accurate
	}
	s, det, exp := r.qosPlan(points)
	if want := []int{0, 2, -1, -1, 3}; !slices.Equal(det, want) {
		t.Errorf("det indices %v, want %v", det, want)
	}
	if want := []int{1, 2, -1, -1, 3}; !slices.Equal(exp, want) {
		t.Errorf("exp indices %v, want %v", exp, want)
	}
	if len(s.Points) != 4 {
		t.Fatalf("%d points, want 4", len(s.Points))
	}
	if d, e := s.Points[0].(campaign.SANPoint), s.Points[1].(campaign.SANPoint); d.FDExponential || !e.FDExponential || d.TMR != 20 || e.TM != 2 {
		t.Errorf("QoS points: det %+v, exp %+v", d, e)
	}
}

// runLines runs a study and returns its results, and each as a JSON line.
func runLines(t *testing.T, s *campaign.Study) ([]*campaign.Result, [][]byte) {
	t.Helper()
	results, err := campaign.RunCollect(context.Background(), s, campaign.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	for _, r := range results {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	return results, lines
}

// TestReproStudiesAreV1Specs: both of repro's studies, fits and QoS
// included, survive the spec format — encoded, decoded and run, they
// give the results of the studies repro runs in process, so `ctsan run
// -study`, `ctsand` and the fleet can run the paper's figures too.
func TestReproStudiesAreV1Specs(t *testing.T) {
	f := experiment.QuickFidelity().Scale(0.05)
	f.Ns, f.TGrid, f.TSendSweep = []int{3, 5}, []float64{5, 30}, []float64{0.015, 0.025}
	r := &repro{f: f, seed: 1, sel: "all"}
	var err error
	if r.fits, err = experiment.MeasureFits(context.Background(), f, r.seed, r.fitNs()); err != nil {
		t.Fatal(err)
	}
	roundTrip := func(s *campaign.Study) []*campaign.Result {
		t.Helper()
		spec, err := campaign.EncodeStudy(s)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := campaign.DecodeStudy(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, want := runLines(t, s)
		results, got := runLines(t, decoded)
		if !slices.EqualFunc(got, want, bytes.Equal) {
			t.Fatalf("study %s runs differently after the spec round trip", s.Name)
		}
		return results
	}
	p := r.plan()
	res := roundTrip(p.Study)
	points := p.class3Points(res)
	sims, _, _ := r.qosPlan(points)
	if len(sims.Points) == 0 {
		t.Fatal("Fig. 9b's study is empty")
	}
	roundTrip(sims.Study)
}

// TestReproDeterministicAcrossWorkers: the whole evaluation prints the
// recorded transcript byte for byte whatever -workers is — one worker
// runs the serial reference path, three share the studies' points and
// their replicas.
func TestReproDeterministicAcrossWorkers(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "cli", "01.stdout"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"1", "3"} {
		code, stdout, stderr := ctsan(t, "repro", "-what", "all", "-scale", "0.05", "-q", "-seed", "1", "-workers", w)
		if code != 0 || stdout != string(want) {
			t.Errorf("-workers %s: exit %d, stdout differs from testdata/cli/01.stdout: %v\n%s", w, code, stdout != string(want), stderr)
		}
	}
}

// BenchmarkRepro runs the whole evaluation at the recorded transcript's
// scale: one calibration and two studies per iteration.
func BenchmarkRepro(b *testing.B) {
	args := []string{"repro", "-what", "all", "-scale", "0.05", "-q", "-seed", "1"}
	for b.Loop() {
		if code := run(context.Background(), args, io.Discard, io.Discard); code != 0 {
			b.Fatalf("ctsan %v: exit %d", args, code)
		}
	}
}
