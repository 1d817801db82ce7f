package experiment

import (
	"context"
	"fmt"
	"math"
	"slices"

	"ctsan/internal/fit"
	"ctsan/internal/metrics"
	"ctsan/internal/stats"
)

// The paper's artifacts. MeasureFits is the one step that runs anything
// here (the §5.1 calibration); Fig*/Table1 only render results computed
// elsewhere — `ctsan repro` runs the campaigns and the SAN simulations
// as campaign studies and hands each renderer the latency digests of the
// points it draws.

// Fidelity scales every campaign. PaperFidelity matches §5 (5000
// executions for classes 1/2, 20×1000 for class 3, all n); QuickFidelity
// is sized for CI and benchmarks.
type Fidelity struct {
	Executions   int       // class-1/2 executions per point (paper: 5000)
	QoSExecs     int       // class-3 executions per point (paper: 20×1000)
	Replicas     int       // SAN transient replicas per point
	DelayProbes  int       // Fig. 6 probes per curve
	Ns           []int     // measured system sizes (paper: 3,5,7,9,11)
	SimNs        []int     // simulated system sizes (paper: 3,5)
	TGrid        []float64 // failure-detection timeouts T for Figs. 8/9
	TSendSweep   []float64 // Fig. 7b t_send values
	CDFGridSteps int
}

// QuickFidelity returns a configuration small enough for tests/benches.
func QuickFidelity() Fidelity {
	return Fidelity{
		Executions:   400,
		QoSExecs:     150,
		Replicas:     400,
		DelayProbes:  2000,
		Ns:           []int{3, 5, 7, 9, 11},
		SimNs:        []int{3, 5},
		TGrid:        []float64{1, 2, 3, 5, 7, 10, 14, 20, 30, 40, 70, 100},
		TSendSweep:   []float64{0.005, 0.010, 0.015, 0.020, 0.025, 0.035},
		CDFGridSteps: 60,
	}
}

// PaperFidelity returns the paper's experiment sizes (§5).
func PaperFidelity() Fidelity {
	f := QuickFidelity()
	f.Executions = 5000
	f.QoSExecs = 1000
	f.Replicas = 3000
	f.DelayProbes = 10000
	return f
}

// Scale multiplies the workload sizes by k (k < 1 shrinks).
func (f Fidelity) Scale(k float64) Fidelity {
	mul := func(v int) int {
		s := int(float64(v) * k)
		if s < 8 {
			s = 8
		}
		return s
	}
	f.Executions = mul(f.Executions)
	f.QoSExecs = mul(f.QoSExecs)
	f.Replicas = mul(f.Replicas)
	f.DelayProbes = mul(f.DelayProbes)
	return f
}

// Fits bundles the §5.1 parameter-estimation products: the bi-modal fits
// of measured end-to-end delays used to configure the SAN model, and the
// delay samples they were fitted from (Fig. 6 plots those).
type Fits struct {
	Unicast         fit.Bimodal
	Broadcast       map[int]fit.Bimodal // per n
	UnicastDelays   []float64
	BroadcastDelays map[int][]float64 // per n
}

// MeasureFits reproduces §5.1: measure unicast and broadcast end-to-end
// delays on the cluster and fit bi-modal uniform mixtures — one unicast
// probe campaign on 3 processes, then one broadcast campaign per n in
// ns, one after the other; ctx is checked before each.
func MeasureFits(ctx context.Context, f Fidelity, seed uint64, ns []int) (*Fits, error) {
	measure := func(spec DelaySpec) ([]float64, fit.Bimodal, error) {
		samples, err := MeasureDelaysContext(ctx, spec)
		if err != nil {
			return nil, fit.Bimodal{}, err
		}
		b, err := fit.FitBimodal(samples)
		return samples, b, err
	}
	out := &Fits{Broadcast: make(map[int]fit.Bimodal), BroadcastDelays: make(map[int][]float64)}
	var err error
	if out.UnicastDelays, out.Unicast, err = measure(DelaySpec{N: 3, Count: f.DelayProbes, Seed: seed}); err != nil {
		return nil, err
	}
	for _, n := range ns {
		samples, b, err := measure(DelaySpec{N: n, Count: f.DelayProbes, Broadcast: true, Seed: seed + uint64(n)})
		if err != nil {
			return nil, err
		}
		out.Broadcast[n], out.BroadcastDelays[n] = b, samples
	}
	return out, nil
}

// cdfSeries converts an ECDF into a plot series over [0, hi].
func cdfSeries(label string, e *stats.ECDF, hi float64, steps int) Series {
	xs, ps := e.Grid(0, hi, steps)
	return Series{Label: label, X: xs, Y: ps}
}

// Fig6 renders Fig. 6: the cumulative distribution of the end-to-end
// delay of unicast and broadcast messages (to 3 and to 5 processes), and
// the bi-modal fits.
func Fig6(f Fidelity, fits *Fits) *Figure {
	fig := &Figure{
		ID:     "FIG6",
		Title:  "cumulative distribution of the end-to-end delay of unicast and broadcast messages",
		XLabel: "transmission time [ms]",
		YLabel: "probability",
		Notes: []string{
			fmt.Sprintf("unicast bi-modal fit: %s (paper: U[0.1,0.13] w.p. 0.80 + U[0.145,0.35] w.p. 0.20)", fits.Unicast),
		},
	}
	fig.Series = append(fig.Series, cdfSeries("unicast", stats.NewECDF(fits.UnicastDelays), 0.6, f.CDFGridSteps))
	for _, n := range []int{3, 5} {
		fig.Series = append(fig.Series, cdfSeries(fmt.Sprintf("broadcast to %d", n), stats.NewECDF(fits.BroadcastDelays[n]), 0.6, f.CDFGridSteps))
		fig.Notes = append(fig.Notes, fmt.Sprintf("broadcast-to-%d fit: %s", n, fits.Broadcast[n]))
	}
	return fig
}

// Fig7a renders Fig. 7(a): the latency CDF from measurements for every
// n, plus the §5.2 mean values. meas[i] is the class-1 campaign on
// f.Ns[i] processes.
func Fig7a(f Fidelity, meas []*metrics.Digest) *Figure {
	fig := &Figure{
		ID:     "FIG7a",
		Title:  "cumulative distribution of consensus latency (measurements, no failures, no suspicions)",
		XLabel: "latency [ms]",
		YLabel: "probability",
	}
	for i, n := range f.Ns {
		d := meas[i]
		fig.Series = append(fig.Series, cdfSeries(fmt.Sprintf("%d processes (meas.)", n), d.ECDF(), 6, f.CDFGridSteps))
		fig.Notes = append(fig.Notes, fmt.Sprintf("n=%d mean latency %.3f ms ± %.3f (90%% CI; paper: %s ms)",
			n, d.Mean(), d.CI(0.90), paperClass1Mean(n)))
	}
	return fig
}

// paperClass1Mean returns the paper's §5.2 measured mean as a string.
func paperClass1Mean(n int) string {
	switch n {
	case 3:
		return "1.06"
	case 5:
		return "1.43"
	case 7:
		return "2.00"
	case 9:
		return "2.62"
	case 11:
		return "3.27"
	}
	return "n/a"
}

// Fig7b renders Fig. 7(b): simulated latency CDFs for n = 5 with the same
// end-to-end delay but varying t_send (sims[i] is the simulation at
// f.TSendSweep[i]), against the measured CDF. It returns the t_send whose
// curve best matches the measurement (KS distance) — the paper selects
// 0.025 ms this way.
func Fig7b(f Fidelity, meas *metrics.Digest, sims []*metrics.Digest) (*Figure, float64) {
	measECDF := meas.ECDF()
	fig := &Figure{
		ID:     "FIG7b",
		Title:  "latency CDF for n=5: simulations sweeping t_send vs measurement",
		XLabel: "latency [ms]",
		YLabel: "probability",
	}
	bestT, bestKS := 0.0, math.Inf(1)
	for i, ts := range f.TSendSweep {
		e := sims[i].ECDF()
		ks := stats.KSDistance(e, measECDF)
		if ks < bestKS {
			bestKS, bestT = ks, ts
		}
		fig.Series = append(fig.Series, cdfSeries(fmt.Sprintf("tsend = %g ms (sim.)", ts), e, 3.5, f.CDFGridSteps))
		fig.Notes = append(fig.Notes, fmt.Sprintf("tsend=%g: mean %.3f ms, KS distance to measurement %.3f", ts, sims[i].Mean(), ks))
	}
	fig.Series = append(fig.Series, cdfSeries("measured", measECDF, 3.5, f.CDFGridSteps))
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("best match at tsend = %g ms (paper: 0.025 ms)", bestT))
	return fig, bestT
}

// CrashScenarios are Table 1's rows: a label and the processes crashed
// from the start of every execution.
var CrashScenarios = []struct {
	Name    string
	Crashed []int
}{
	{"no crash", nil},
	{"coordinator crash", []int{1}},
	{"participant crash", []int{2}},
}

// Table1 renders Table 1: latency for the crash scenarios, measured for
// every n and simulated for the SimNs. meas[s][i] and sims[s][i] are row
// s of CrashScenarios on f.Ns[i] processes; sims[s][i] is read only when
// f.Ns[i] is one of f.SimNs.
func Table1(f Fidelity, meas, sims [][]*metrics.Digest) *Table {
	t := &Table{
		ID:    "TABLE1",
		Title: "latency (ms) for various crash scenarios from measurements and simulations",
		Notes: []string{
			"paper (meas./sim.): no crash 1.06/1.030 (n=3), 1.43/1.442 (n=5); coordinator crash 1.568/1.336, 2.245/2.295; participant crash 1.115/0.786, 1.340/1.336",
			"per §5.3: coordinator crash increases latency for every n; participant crash decreases it except for n=3 in measurements (unicast ordering), while the simulation (single broadcast message) shows a decrease at n=3 too",
		},
	}
	t.Header = []string{"latency [ms]"}
	for _, n := range f.Ns {
		t.Header = append(t.Header, fmt.Sprintf("n=%d meas.", n))
		if slices.Contains(f.SimNs, n) {
			t.Header = append(t.Header, fmt.Sprintf("n=%d sim.", n))
		}
	}
	for s, sc := range CrashScenarios {
		row := []string{sc.Name}
		for i, n := range f.Ns {
			row = append(row, fmt.Sprintf("%.3f", meas[s][i].Mean()))
			if slices.Contains(f.SimNs, n) {
				row = append(row, fmt.Sprintf("%.3f", sims[s][i].Mean()))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
