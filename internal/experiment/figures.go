package experiment

import (
	"context"
	"fmt"
	"math"

	"ctsan/internal/fit"
	"ctsan/internal/neko"
	"ctsan/internal/parallel"
	"ctsan/internal/sanmodel"
	"ctsan/internal/stats"
)

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
	// Workers is the width of the pool independent campaign points and
	// their Monte-Carlo replicas share: 0 (or negative) means one worker
	// per CPU, 1 forces serial execution. Every campaign is bit-identical
	// at any worker count; see PERFORMANCE.md.
	Workers int
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
// delays on the cluster and fit bi-modal uniform mixtures. The unicast and
// per-n broadcast measurements are independent campaigns and run
// concurrently under f.Workers.
func MeasureFits(ctx context.Context, f Fidelity, seed uint64, ns []int) (*Fits, error) {
	type fitOut struct {
		n       int
		b       fit.Bimodal
		samples []float64
	}
	// Index 0 is the unicast campaign; 1..len(ns) the broadcast ones.
	fits, err := parallel.Map(ctx, f.Workers, len(ns)+1, func(_, i int) (fitOut, error) {
		spec := DelaySpec{N: 3, Count: f.DelayProbes, Seed: seed}
		n := 0
		if i > 0 {
			n = ns[i-1]
			spec = DelaySpec{N: n, Count: f.DelayProbes, Broadcast: true, Seed: seed + uint64(n)}
		}
		samples, err := MeasureDelaysContext(ctx, spec)
		if err != nil {
			return fitOut{}, err
		}
		b, err := fit.FitBimodal(samples)
		if err != nil {
			return fitOut{}, err
		}
		return fitOut{n: n, b: b, samples: samples}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &Fits{
		Unicast:         fits[0].b,
		Broadcast:       make(map[int]fit.Bimodal),
		UnicastDelays:   fits[0].samples,
		BroadcastDelays: make(map[int][]float64),
	}
	for _, fo := range fits[1:] {
		out.Broadcast[fo.n] = fo.b
		out.BroadcastDelays[fo.n] = fo.samples
	}
	return out, nil
}

// SANParams derives the SAN model parameters for n processes from the
// measured fits, with the given t_send = t_receive split (§5.1/§5.2; the
// paper settles on 0.025 ms via the Fig. 7b sweep).
func (fs *Fits) SANParams(n int, tsend float64) sanmodel.Params {
	p := sanmodel.DefaultParams(n)
	p.TSend = tsend
	p.TReceive = tsend
	// The floor keeps the network activity strictly positive even when
	// 2·t_send exceeds the smallest measured delay during the sweep.
	p.NetUnicast = fs.Unicast.Shift(2*tsend, 0.001).Dist()
	bb, ok := fs.Broadcast[n]
	if !ok {
		bb = fs.Unicast
	}
	p.NetBroadcast = bb.Shift(2*tsend, 0.001).Dist()
	return p
}

// cdfSeries converts an ECDF into a plot series over [0, hi].
func cdfSeries(label string, e *stats.ECDF, hi float64, steps int) Series {
	xs, ps := e.Grid(0, hi, steps)
	return Series{Label: label, X: xs, Y: ps}
}

// Fig6 reproduces Fig. 6: the cumulative distribution of the end-to-end
// delay of unicast and broadcast messages, and reports the bi-modal fits.
func Fig6(ctx context.Context, f Fidelity, seed uint64) (*Figure, *Fits, error) {
	bns := []int{3, 5}
	fits, err := MeasureFits(ctx, f, seed, bns)
	if err != nil {
		return nil, nil, err
	}
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
	for _, n := range bns {
		fig.Series = append(fig.Series, cdfSeries(fmt.Sprintf("broadcast to %d", n), stats.NewECDF(fits.BroadcastDelays[n]), 0.6, f.CDFGridSteps))
		fig.Notes = append(fig.Notes, fmt.Sprintf("broadcast-to-%d fit: %s", n, fits.Broadcast[n]))
	}
	return fig, fits, nil
}

// Fig7a reproduces Fig. 7(a): the latency CDF from measurements for every
// n, plus the §5.2 mean values.
func Fig7a(ctx context.Context, f Fidelity, seed uint64) (*Figure, map[int]*LatencyResult, error) {
	fig := &Figure{
		ID:     "FIG7a",
		Title:  "cumulative distribution of consensus latency (measurements, no failures, no suspicions)",
		XLabel: "latency [ms]",
		YLabel: "probability",
	}
	specs := make([]LatencySpec, len(f.Ns))
	for i, n := range f.Ns {
		specs[i] = LatencySpec{N: n, Executions: f.Executions, Seed: seed}
	}
	sweep, err := RunLatencySweepContext(ctx, specs, f.Workers)
	if err != nil {
		return nil, nil, err
	}
	results := make(map[int]*LatencyResult, len(f.Ns))
	for i, n := range f.Ns {
		res := sweep[i]
		results[n] = res
		fig.Series = append(fig.Series, cdfSeries(fmt.Sprintf("%d processes (meas.)", n), res.ECDF(), 6, f.CDFGridSteps))
		fig.Notes = append(fig.Notes, fmt.Sprintf("n=%d mean latency %.3f ms ± %.3f (90%% CI; paper: %s ms)",
			n, res.Digest.Mean(), res.Digest.CI(0.90), paperClass1Mean(n)))
	}
	return fig, results, nil
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

// Fig7b reproduces Fig. 7(b): simulated latency CDFs for n = 5 with the
// same end-to-end delay but varying t_send, against the measured CDF. The
// t_send whose curve best matches the measurement (KS distance) is
// reported — the paper selects 0.025 ms this way.
func Fig7b(ctx context.Context, f Fidelity, seed uint64) (*Figure, float64, error) {
	fits, err := MeasureFits(ctx, f, seed, []int{5})
	if err != nil {
		return nil, 0, err
	}
	meas, err := RunLatencyContext(ctx, LatencySpec{N: 5, Executions: f.Executions, Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	measECDF := meas.ECDF()
	fig := &Figure{
		ID:     "FIG7b",
		Title:  "latency CDF for n=5: simulations sweeping t_send vs measurement",
		XLabel: "latency [ms]",
		YLabel: "probability",
	}
	// Each t_send value is an independent simulation campaign; sweep them
	// concurrently on one pool (a worker with no value left joins the
	// replicas of the campaigns still running) and fold in sweep order so
	// the figure (and the selected best t_send) is identical at any worker
	// count.
	type sweepOut struct {
		e    *stats.ECDF
		ks   float64
		mean float64
	}
	pool := parallel.NewPool(f.Workers)
	sweep, err := parallel.MapOn(ctx, pool, len(f.TSendSweep), func(w, i int) (sweepOut, error) {
		ts := f.TSendSweep[i]
		p := fits.SANParams(5, ts)
		var ms sanmodel.Models
		res, err := ms.Simulate(ctx, pool, w, p, f.Replicas, 1e6, seed+uint64(ts*1e4))
		if err != nil {
			return sweepOut{}, err
		}
		e := res.ECDF()
		return sweepOut{e: e, ks: stats.KSDistance(e, measECDF), mean: res.Digest.Mean()}, nil
	})
	if err != nil {
		return nil, 0, err
	}
	bestT, bestKS := 0.0, math.Inf(1)
	for i, ts := range f.TSendSweep {
		out := sweep[i]
		if out.ks < bestKS {
			bestKS, bestT = out.ks, ts
		}
		fig.Series = append(fig.Series, cdfSeries(fmt.Sprintf("tsend = %g ms (sim.)", ts), out.e, 3.5, f.CDFGridSteps))
		fig.Notes = append(fig.Notes, fmt.Sprintf("tsend=%g: mean %.3f ms, KS distance to measurement %.3f", ts, out.mean, out.ks))
	}
	fig.Series = append(fig.Series, cdfSeries("measured", measECDF, 3.5, f.CDFGridSteps))
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("best match at tsend = %g ms (paper: 0.025 ms)", bestT))
	return fig, bestT, nil
}

// Table1 reproduces Table 1: latency for the crash scenarios, measured for
// every n and simulated for the SimNs.
func Table1(ctx context.Context, f Fidelity, seed uint64) (*Table, error) {
	fits, err := MeasureFits(ctx, f, seed, f.SimNs)
	if err != nil {
		return nil, err
	}
	scenarios := []struct {
		name    string
		crashed []neko.ProcessID
	}{
		{"no crash", nil},
		{"coordinator crash", []neko.ProcessID{1}},
		{"participant crash", []neko.ProcessID{2}},
	}
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
		if contains(f.SimNs, n) {
			t.Header = append(t.Header, fmt.Sprintf("n=%d sim.", n))
		}
	}
	// Every (scenario, n) cell is an independent measurement campaign plus
	// an optional SAN simulation; run all of them concurrently on one pool
	// (a worker with no cell left joins the replicas of the simulations
	// still running) and fold in table order.
	type cellJob struct {
		scenario int
		n        int
	}
	var jobs []cellJob
	for si := range scenarios {
		for _, n := range f.Ns {
			jobs = append(jobs, cellJob{scenario: si, n: n})
		}
	}
	pool := parallel.NewPool(f.Workers)
	cells, err := parallel.MapOn(ctx, pool, len(jobs), func(w, i int) ([]string, error) {
		job := jobs[i]
		sc := scenarios[job.scenario]
		res, err := RunLatencyContext(ctx, LatencySpec{N: job.n, Executions: f.Executions, Seed: seed, Crashed: sc.crashed})
		if err != nil {
			return nil, err
		}
		cell := []string{fmt.Sprintf("%.3f", res.Digest.Mean())}
		if contains(f.SimNs, job.n) {
			var simCrash []int
			for _, id := range sc.crashed {
				simCrash = append(simCrash, int(id))
			}
			p := fits.SANParams(job.n, 0.025)
			p.Crashed = simCrash
			var ms sanmodel.Models
			sim, err := ms.Simulate(ctx, pool, w, p, f.Replicas, 1e6, seed+uint64(job.n))
			if err != nil {
				return nil, err
			}
			cell = append(cell, fmt.Sprintf("%.3f", sim.Digest.Mean()))
		}
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	for si, sc := range scenarios {
		row := []string{sc.name}
		for i, job := range jobs {
			if job.scenario == si {
				row = append(row, cells[i]...)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
