package experiment

import (
	"context"
	"fmt"
	"sync"

	"ctsan/internal/fd"
	"ctsan/internal/parallel"
	"ctsan/internal/sanmodel"
	"ctsan/internal/stats"
)

// Class3Point is one class-3 campaign result: heartbeat failure detector
// with timeout T (and T_h = 0.7·T) on n processes, no crashes.
type Class3Point struct {
	N       int
	T       float64
	QoS     fd.QoS
	Mean    float64
	ECDF    *stats.ECDF
	Aborted int
}

// RunClass3 runs the §5.4 campaign: for every (n, T) in the fidelity's
// grids, measure both the failure-detector QoS metrics and the consensus
// latency over sequential executions. The grid points are independent
// campaigns and run concurrently under f.Workers; the returned points are
// in grid order regardless of worker count. progress (may be nil) receives
// one line per point as it completes — in completion order, which under
// parallelism need not be grid order.
func RunClass3(ctx context.Context, f Fidelity, seed uint64, progress func(string)) ([]Class3Point, error) {
	type gridPoint struct {
		n int
		T float64
	}
	var grid []gridPoint
	for _, n := range f.Ns {
		for _, T := range f.TGrid {
			grid = append(grid, gridPoint{n: n, T: T})
		}
	}
	var progressMu sync.Mutex
	out, err := parallel.Map(ctx, f.Workers, len(grid), func(_, i int) (Class3Point, error) {
		n, T := grid[i].n, grid[i].T
		res, err := RunLatencyContext(ctx, LatencySpec{
			N:          n,
			Executions: f.QoSExecs,
			Seed:       seed + uint64(n)*1000 + uint64(T*10),
			FDMode:     FDHeartbeat,
			TimeoutT:   T,
		})
		if err != nil {
			return Class3Point{}, fmt.Errorf("class3 n=%d T=%g: %w", n, T, err)
		}
		pt := Class3Point{N: n, T: T, QoS: res.QoS, Aborted: res.Aborted}
		if res.Digest.N() > 0 {
			pt.Mean = res.Digest.Mean()
			pt.ECDF = res.ECDF()
		}
		if progress != nil {
			progressMu.Lock()
			progress(fmt.Sprintf("class3 n=%d T=%g: latency %.3f ms, %s, aborted=%d",
				pt.N, pt.T, pt.Mean, pt.QoS, pt.Aborted))
			progressMu.Unlock()
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fig8 reproduces Fig. 8: the failure-detector QoS metrics T_MR (a) and
// T_M (b) as a function of the timeout T.
func Fig8(points []Class3Point) (tmrFig, tmFig *Figure) {
	tmrFig = &Figure{
		ID:     "FIG8a",
		Title:  "failure detector mistake recurrence time T_MR vs timeout T (no failures)",
		XLabel: "failure detection timeout T [ms]",
		YLabel: "mistake recurrence time [ms]",
		Notes: []string{
			"paper: increasing tendency; T_MR rises very fast beyond T = 30 ms (>190 ms at T=40, >5000 ms at T=100)",
			"points where no mistakes were observed report the censored value 2·T_exp",
		},
	}
	tmFig = &Figure{
		ID:     "FIG8b",
		Title:  "failure detector mistake duration T_M vs timeout T (no failures)",
		XLabel: "failure detection timeout T [ms]",
		YLabel: "mistake duration [ms]",
		Notes:  []string{"paper: less regular, remains bounded (<12 ms) for all T"},
	}
	series := map[int]*[2]Series{}
	var ns []int
	for _, p := range points {
		s, ok := series[p.N]
		if !ok {
			s = &[2]Series{
				{Label: fmt.Sprintf("%d processes", p.N)},
				{Label: fmt.Sprintf("%d processes", p.N)},
			}
			series[p.N] = s
			ns = append(ns, p.N)
		}
		s[0].X = append(s[0].X, p.T)
		s[0].Y = append(s[0].Y, p.QoS.TMR)
		s[1].X = append(s[1].X, p.T)
		s[1].Y = append(s[1].Y, p.QoS.TM)
	}
	for _, n := range ns {
		tmrFig.Series = append(tmrFig.Series, series[n][0])
		tmFig.Series = append(tmFig.Series, series[n][1])
	}
	return tmrFig, tmFig
}

// Fig9a reproduces Fig. 9(a): measured latency vs the timeout T.
func Fig9a(points []Class3Point) *Figure {
	fig := &Figure{
		ID:     "FIG9a",
		Title:  "consensus latency vs failure detection timeout T (measurements, no failures)",
		XLabel: "failure detection timeout T [ms]",
		YLabel: "latency [ms]",
		Notes: []string{
			"paper: each curve starts very high and decreases fast to the no-suspicion latency; small peak around T = 10 ms for mid n (Linux scheduler interference)",
		},
	}
	series := map[int]*Series{}
	var ns []int
	for _, p := range points {
		if p.ECDF == nil {
			// Every execution aborted (timeout so small that consensus
			// never terminated within the watchdog); the paper's
			// footnote 2 region. No latency to report.
			continue
		}
		s, ok := series[p.N]
		if !ok {
			s = &Series{Label: fmt.Sprintf("%d processes (exp.)", p.N)}
			series[p.N] = s
			ns = append(ns, p.N)
		}
		s.X = append(s.X, p.T)
		s.Y = append(s.Y, p.Mean)
	}
	for _, n := range ns {
		fig.Series = append(fig.Series, *series[n])
	}
	return fig
}

// Fig9b reproduces Fig. 9(b): measured latency vs SAN simulation fed with
// the measured QoS metrics, under deterministic and exponential FD sojourn
// distributions, for the simulated system sizes (paper: n = 3 and 5).
func Fig9b(ctx context.Context, points []Class3Point, f Fidelity, seed uint64) (*Figure, error) {
	fits, err := MeasureFits(ctx, f, seed, f.SimNs)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "FIG9b",
		Title:  "latency vs timeout T: measurements vs SAN simulation (det/exp FD model)",
		XLabel: "failure detection timeout T [ms]",
		YLabel: "latency [ms]",
		Notes: []string{
			"paper: the SAN model matches measurements when failure-detector QoS is good (high T) and deviates when wrong suspicions are frequent (low T) — the independence assumption between failure detectors does not hold (§5.4)",
		},
	}
	for _, n := range f.SimNs {
		var kept []Class3Point
		for _, p := range points {
			if p.N == n && p.ECDF != nil {
				kept = append(kept, p)
			}
		}
		// One SAN simulation pair per retained grid point, all independent:
		// fan them out on one pool — a worker with no point left joins the
		// replicas of the simulations still running — and fold in point
		// order.
		type simPair struct{ det, exp float64 }
		pool := parallel.NewPool(f.Workers)
		pairs, err := parallel.MapOn(ctx, pool, len(kept), func(w, i int) (simPair, error) {
			p := kept[i]
			var out simPair
			for _, kind := range []sanmodel.FDDistKind{sanmodel.FDDeterministic, sanmodel.FDExponential} {
				sp := fits.SANParams(n, 0.025)
				sp.FD = fdModelFromQoS(p.QoS, kind)
				var ms sanmodel.Models
				res, err := ms.Simulate(ctx, pool, w, sp, f.Replicas, 1e6, seed+uint64(n)*17+uint64(p.T))
				if err != nil {
					return simPair{}, err
				}
				if kind == sanmodel.FDDeterministic {
					out.det = res.Digest.Mean()
				} else {
					out.exp = res.Digest.Mean()
				}
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		var xs []float64
		var det, exp, meas []float64
		for i, p := range kept {
			xs = append(xs, p.T)
			meas = append(meas, p.Mean)
			det = append(det, pairs[i].det)
			exp = append(exp, pairs[i].exp)
		}
		fig.Series = append(fig.Series,
			Series{Label: fmt.Sprintf("%d processes (sim., det.)", n), X: xs, Y: det},
			Series{Label: fmt.Sprintf("%d processes (sim., exp.)", n), X: xs, Y: exp},
			Series{Label: fmt.Sprintf("%d processes (exp.)", n), X: xs, Y: meas},
		)
	}
	return fig, nil
}

// fdModelFromQoS converts measured QoS metrics into the SAN FD submodel
// parameters, guarding degenerate cases (no observed mistakes → disable).
func fdModelFromQoS(q fd.QoS, kind sanmodel.FDDistKind) sanmodel.FDModel {
	if q.Transitions == 0 || q.TM <= 0 || q.TM >= q.TMR {
		return sanmodel.FDModel{} // class-1 behaviour
	}
	return sanmodel.FDModel{TMR: q.TMR, TM: q.TM, Kind: kind}
}
