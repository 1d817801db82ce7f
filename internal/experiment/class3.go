package experiment

import (
	"fmt"

	"ctsan/internal/metrics"
)

// Class3Point is one class-3 campaign (§5.4): the heartbeat failure
// detector with timeout T (and T_h = 0.7·T) on n processes, no crashes —
// its latency digest and its measured failure-detector QoS.
type Class3Point struct {
	N   int
	T   float64
	Res *LatencyResult
}

// Fig8 renders Fig. 8: the failure-detector QoS metrics T_MR (a) and
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
		s[0].Y = append(s[0].Y, p.Res.QoS.TMR)
		s[1].X = append(s[1].X, p.T)
		s[1].Y = append(s[1].Y, p.Res.QoS.TM)
	}
	for _, n := range ns {
		tmrFig.Series = append(tmrFig.Series, series[n][0])
		tmFig.Series = append(tmFig.Series, series[n][1])
	}
	return tmrFig, tmFig
}

// Fig9a renders Fig. 9(a): measured latency vs the timeout T.
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
		if p.Res.Digest.N() == 0 {
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
		s.Y = append(s.Y, p.Res.Digest.Mean())
	}
	for _, n := range ns {
		fig.Series = append(fig.Series, *series[n])
	}
	return fig
}

// Fig9b renders Fig. 9(b): measured latency vs SAN simulation fed with
// the measured QoS, under deterministic and exponential FD sojourn
// distributions (det[i] and exp[i] are the simulations fed with
// points[i]'s QoS, nil where none ran), for the simulated system sizes
// (paper: n = 3 and 5).
func Fig9b(f Fidelity, points []Class3Point, det, exp []*metrics.Digest) *Figure {
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
		var xs, detY, expY, meas []float64
		for i, p := range points {
			if p.N == n && det[i] != nil {
				xs = append(xs, p.T)
				meas = append(meas, p.Res.Digest.Mean())
				detY = append(detY, det[i].Mean())
				expY = append(expY, exp[i].Mean())
			}
		}
		fig.Series = append(fig.Series,
			Series{Label: fmt.Sprintf("%d processes (sim., det.)", n), X: xs, Y: detY},
			Series{Label: fmt.Sprintf("%d processes (sim., exp.)", n), X: xs, Y: expY},
			Series{Label: fmt.Sprintf("%d processes (exp.)", n), X: xs, Y: meas},
		)
	}
	return fig
}
