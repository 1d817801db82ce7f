package experiment

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"ctsan/internal/fit"
	"ctsan/internal/metrics"
	"ctsan/internal/neko"
	"ctsan/internal/sanmodel"
	"ctsan/internal/stats"
)

// The renderers run nothing: each test below computes the engine results
// a figure draws — campaigns on the emulated cluster, simulations of the
// SAN model — and hands them over, as `ctsan repro` does with the results
// of its studies.

// tinyFidelity keeps figure tests fast.
func tinyFidelity() Fidelity {
	f := QuickFidelity()
	f.Executions = 120
	f.QoSExecs = 60
	f.Replicas = 80
	f.DelayProbes = 800
	f.Ns = []int{3, 5}
	f.SimNs = []int{3}
	f.TGrid = []float64{3, 30}
	f.TSendSweep = []float64{0.015, 0.025}
	f.CDFGridSteps = 20
	return f
}

// measure runs one campaign on the emulated cluster.
func measure(t *testing.T, spec LatencySpec) *LatencyResult {
	t.Helper()
	res, err := RunLatencyContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// simulate solves the SAN model for p with f's replica count.
func simulate(t *testing.T, f Fidelity, p sanmodel.Params, seed uint64) *metrics.Digest {
	t.Helper()
	res, err := sanmodel.SimulateContext(context.Background(), p, f.Replicas, 1e6, seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &res.Digest
}

func TestFig6(t *testing.T) {
	f := tinyFidelity()
	fits, err := MeasureFits(context.Background(), f, 1, []int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	fig := Fig6(f, fits)
	if len(fig.Series) != 3 {
		t.Fatalf("Fig6 series %d, want unicast + 2 broadcasts", len(fig.Series))
	}
	// The unicast fit must resemble the paper's §5.1 numbers.
	u := fits.Unicast
	if u.P1 < 0.6 || u.P1 > 0.95 {
		t.Errorf("unicast P1 = %.2f, paper 0.80", u.P1)
	}
	if u.Lo1 < 0.07 || u.Hi2 > 0.45 {
		t.Errorf("unicast support [%.3f, %.3f] far from paper [0.1, 0.35]", u.Lo1, u.Hi2)
	}
	var buf bytes.Buffer
	fig.Fprint(&buf)
	if !strings.Contains(buf.String(), "FIG6") {
		t.Error("rendered figure missing ID")
	}
}

// TestFig6PlotsTheFittedSamples: Fig. 6's curves are the ECDFs of the
// very samples the bi-modal fits were estimated from — MeasureFits runs
// each probe campaign once and keeps both.
func TestFig6PlotsTheFittedSamples(t *testing.T) {
	f := tinyFidelity()
	fits, err := MeasureFits(context.Background(), f, 1, []int{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	fig := Fig6(f, fits)
	want := []Series{
		cdfSeries("unicast", stats.NewECDF(fits.UnicastDelays), 0.6, f.CDFGridSteps),
		cdfSeries("broadcast to 3", stats.NewECDF(fits.BroadcastDelays[3]), 0.6, f.CDFGridSteps),
		cdfSeries("broadcast to 5", stats.NewECDF(fits.BroadcastDelays[5]), 0.6, f.CDFGridSteps),
	}
	if len(fits.UnicastDelays) == 0 || !reflect.DeepEqual(fig.Series, want) {
		t.Errorf("Fig6 series are not the ECDFs of the fitted samples:\n got %+v\nwant %+v", fig.Series, want)
	}
	check := func(name string, got fit.Bimodal, samples []float64) {
		want, err := fit.FitBimodal(samples)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s fit %v is not the fit of the plotted samples %v", name, got, want)
		}
	}
	check("unicast", fits.Unicast, fits.UnicastDelays)
	check("broadcast-to-3", fits.Broadcast[3], fits.BroadcastDelays[3])
	check("broadcast-to-5", fits.Broadcast[5], fits.BroadcastDelays[5])
}

func TestFig7a(t *testing.T) {
	f := tinyFidelity()
	var meas []*metrics.Digest
	for _, n := range f.Ns {
		meas = append(meas, &measure(t, LatencySpec{N: n, Executions: f.Executions, Seed: 1}).Digest)
	}
	fig := Fig7a(f, meas)
	if len(fig.Series) != 2 {
		t.Fatalf("series %d", len(fig.Series))
	}
	if meas[0].Mean() >= meas[1].Mean() {
		t.Error("latency not increasing with n")
	}
	// CDFs end at 1.
	for _, s := range fig.Series {
		if s.Y[len(s.Y)-1] < 0.99 {
			t.Errorf("series %s CDF ends at %v", s.Label, s.Y[len(s.Y)-1])
		}
	}
}

func TestFig7b(t *testing.T) {
	f := tinyFidelity()
	meas := measure(t, LatencySpec{N: 5, Executions: f.Executions, Seed: 1})
	var sims []*metrics.Digest
	for _, ts := range f.TSendSweep {
		p := sanmodel.DefaultParams(5)
		p.TSend, p.TReceive = ts, ts
		sims = append(sims, simulate(t, f, p, 1+uint64(ts*1e4)))
	}
	fig, best := Fig7b(f, &meas.Digest, sims)
	if len(fig.Series) != len(f.TSendSweep)+1 {
		t.Fatalf("series %d", len(fig.Series))
	}
	found := false
	for _, ts := range f.TSendSweep {
		if best == ts {
			found = true
		}
	}
	if !found {
		t.Fatalf("best t_send %v not among the sweep", best)
	}
}

func TestTable1(t *testing.T) {
	f := tinyFidelity()
	var meas, sims [][]*metrics.Digest
	for _, sc := range CrashScenarios {
		mrow, srow := make([]*metrics.Digest, len(f.Ns)), make([]*metrics.Digest, len(f.Ns))
		for i, n := range f.Ns {
			spec := LatencySpec{N: n, Executions: f.Executions, Seed: 1}
			p := sanmodel.DefaultParams(n)
			for _, id := range sc.Crashed {
				spec.Crashed = append(spec.Crashed, neko.ProcessID(id))
			}
			p.Crashed = sc.Crashed
			mrow[i] = &measure(t, spec).Digest
			if n == f.SimNs[0] {
				srow[i] = simulate(t, f, p, 1+uint64(n))
			}
		}
		meas, sims = append(meas, mrow), append(sims, srow)
	}
	tab := Table1(f, meas, sims)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %d", len(tab.Rows))
	}
	// Header: label + meas for each n + sim for SimNs.
	if want := 1 + 2 + 1; len(tab.Header) != want {
		t.Fatalf("header %v", tab.Header)
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "coordinator crash") || !strings.Contains(out, "participant crash") {
		t.Error("rendered table missing scenario rows")
	}
}

func TestClass3AndFigs89(t *testing.T) {
	f := tinyFidelity()
	var points []Class3Point
	for _, n := range f.Ns {
		for _, T := range f.TGrid {
			res := measure(t, LatencySpec{N: n, Executions: f.QoSExecs, Seed: 1 + uint64(n)*1000 + uint64(T*10), FDMode: FDHeartbeat, TimeoutT: T})
			points = append(points, Class3Point{N: n, T: T, Res: res})
		}
	}
	a, b := Fig8(points)
	if len(a.Series) != 2 || len(b.Series) != 2 {
		t.Fatalf("Fig8 series %d/%d", len(a.Series), len(b.Series))
	}
	f9a := Fig9a(points)
	if len(f9a.Series) != 2 {
		t.Fatalf("Fig9a series %d", len(f9a.Series))
	}
	det, exp := make([]*metrics.Digest, len(points)), make([]*metrics.Digest, len(points))
	for i, pt := range points {
		if pt.N != f.SimNs[0] || pt.Res.Digest.N() == 0 {
			continue
		}
		p := sanmodel.DefaultParams(pt.N)
		if q := pt.Res.QoS; q.Transitions != 0 && 0 < q.TM && q.TM < q.TMR {
			p.FD = sanmodel.FDModel{TMR: q.TMR, TM: q.TM, Kind: sanmodel.FDDeterministic}
		}
		det[i] = simulate(t, f, p, 1+uint64(pt.N)*17+uint64(pt.T))
		p.FD.Kind = sanmodel.FDExponential
		exp[i] = simulate(t, f, p, 1+uint64(pt.N)*17+uint64(pt.T))
	}
	f9b := Fig9b(f, points, det, exp)
	// Per simulated n: det + exp + measured, one point per simulated T.
	if len(f9b.Series) != 3*len(f.SimNs) {
		t.Fatalf("Fig9b series %d", len(f9b.Series))
	}
	if got := len(f9b.Series[0].X); got != len(f.TGrid) {
		t.Errorf("Fig9b draws %d timeouts for n=%d, want %d", got, f.SimNs[0], len(f.TGrid))
	}
}

func TestReportRendering(t *testing.T) {
	fig := &Figure{ID: "X", Title: "tt", XLabel: "x", YLabel: "y",
		Series: []Series{{Label: "s", X: []float64{1, 2}, Y: []float64{0.5, 1}}},
		Notes:  []string{"hello"},
	}
	var buf bytes.Buffer
	fig.Fprint(&buf)
	for _, want := range []string{"# X", "hello", "series: s"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q in rendering", want)
		}
	}
	tab := &Table{ID: "T", Title: "t", Header: []string{"a", "bbbb"}, Rows: [][]string{{"1", "2"}}}
	buf.Reset()
	tab.Fprint(&buf)
	if !strings.Contains(buf.String(), "a  bbbb") {
		t.Errorf("table alignment: %q", buf.String())
	}
}
