package experiment

import (
	"bytes"
	"context"
	"expvar"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ctsan/internal/stats"
)

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

func TestFig6(t *testing.T) {
	fig, fits, err := Fig6(context.Background(), tinyFidelity(), 1)
	if err != nil {
		t.Fatal(err)
	}
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

// TestFig6PlotsTheFittedSamples: Fig. 6 measures each delay campaign
// once. Its curves are the ECDFs of the very samples the bi-modal fits
// were estimated from (it used to re-run all three probe campaigns with
// the same spec and seed to plot them), and the pool's own telemetry
// shows three work units — one per probe campaign — not more.
func TestFig6PlotsTheFittedSamples(t *testing.T) {
	f := tinyFidelity()
	units := func() int64 {
		n, _ := strconv.ParseInt(expvar.Get("ctsan.work_units_completed").String(), 10, 64)
		return n
	}
	before := units()
	fig, fits, err := Fig6(context.Background(), f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := units() - before; got != 3 {
		t.Errorf("Fig6 ran %d pool work units, want 3 (unicast + 2 broadcast probe campaigns)", got)
	}
	want := []Series{
		cdfSeries("unicast", stats.NewECDF(fits.UnicastDelays), 0.6, f.CDFGridSteps),
		cdfSeries("broadcast to 3", stats.NewECDF(fits.BroadcastDelays[3]), 0.6, f.CDFGridSteps),
		cdfSeries("broadcast to 5", stats.NewECDF(fits.BroadcastDelays[5]), 0.6, f.CDFGridSteps),
	}
	if len(fits.UnicastDelays) == 0 || !reflect.DeepEqual(fig.Series, want) {
		t.Errorf("Fig6 series are not the ECDFs of the fitted samples:\n got %+v\nwant %+v", fig.Series, want)
	}
}

func TestFig7a(t *testing.T) {
	fig, results, err := Fig7a(context.Background(), tinyFidelity(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series %d", len(fig.Series))
	}
	if results[3].Digest.Mean() >= results[5].Digest.Mean() {
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
	fig, best, err := Fig7b(context.Background(), f, 1)
	if err != nil {
		t.Fatal(err)
	}
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
	tab, err := Table1(context.Background(), tinyFidelity(), 1)
	if err != nil {
		t.Fatal(err)
	}
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
	points, err := RunClass3(context.Background(), f, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(f.Ns)*len(f.TGrid) {
		t.Fatalf("points %d", len(points))
	}
	a, b := Fig8(points)
	if len(a.Series) != 2 || len(b.Series) != 2 {
		t.Fatalf("Fig8 series %d/%d", len(a.Series), len(b.Series))
	}
	f9a := Fig9a(points)
	if len(f9a.Series) != 2 {
		t.Fatalf("Fig9a series %d", len(f9a.Series))
	}
	f9b, err := Fig9b(context.Background(), points, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Per simulated n: det + exp + measured.
	if len(f9b.Series) != 3*len(f.SimNs) {
		t.Fatalf("Fig9b series %d", len(f9b.Series))
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
