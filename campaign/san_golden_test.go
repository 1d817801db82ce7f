package campaign_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"ctsan/campaign"
	"ctsan/internal/sanmodel"
)

// TestSANGolden pins the values of the SAN path in tier-1, the
// counterpart of TestEmulationGolden: the three run classes of §2.4 at
// n = 3, 5, 7 through the public study API (no crash, one initial crash,
// deterministic and exponential failure-detector submodels, and a horizon
// short enough to truncate replicas), plus the two modeling ablations that
// SANPoint cannot express, through sanmodel.SimulateContext. Every part is
// produced at 1, 2 and 8 workers and must give the same bytes, so the file
// fences both the simulator's statistics and their worker independence.
// Regenerate with `go test ./campaign -run TestSANGolden -update` after a
// deliberate change of the SAN model or simulator semantics.
func TestSANGolden(t *testing.T) {
	render := func(workers int) []byte {
		var buf bytes.Buffer
		study := campaign.NewStudy("san-golden",
			campaign.SANPoint{Name: "c1-n3", N: 3, Replicas: 120},
			campaign.SANPoint{Name: "c1-n5", N: 5, Replicas: 120},
			campaign.SANPoint{Name: "c1-n7", N: 7, Replicas: 80},
			campaign.SANPoint{Name: "c2-n3-crash1", N: 3, Replicas: 120, Crashed: []int{1}},
			campaign.SANPoint{Name: "c2-n5-crash1", N: 5, Replicas: 120, Crashed: []int{1}},
			campaign.SANPoint{Name: "c2-n7-crash1", N: 7, Replicas: 80, Crashed: []int{1}},
			campaign.SANPoint{Name: "c3-n3-det", N: 3, Replicas: 120, TMR: 30, TM: 2},
			campaign.SANPoint{Name: "c3-n5-exp", N: 5, Replicas: 120, TMR: 15, TM: 2, FDExponential: true},
			campaign.SANPoint{Name: "c3-n7-exp", N: 7, Replicas: 80, TMR: 12, TM: 3, FDExponential: true},
			campaign.SANPoint{Name: "c3-n5-short-tmax", N: 5, Replicas: 120, TMR: 8, TM: 3, FDExponential: true, Tmax: 1.2},
			campaign.SANPoint{Name: "c1-n3-slow-send", N: 3, Replicas: 120, TSend: 0.2},
		)
		buf.Write(jsonl(t, study, campaign.WithSeed(1), campaign.WithWorkers(workers)))
		ablations := []struct {
			name string
			p    func() sanmodel.Params
		}{
			{"unicast-broadcast-n3-crash2", func() sanmodel.Params {
				p := sanmodel.DefaultParams(3)
				p.UnicastBroadcast = true
				p.Crashed = []int{2}
				return p
			}},
			{"unicast-broadcast-n5-exp", func() sanmodel.Params {
				p := sanmodel.DefaultParams(5)
				p.UnicastBroadcast = true
				p.FD = sanmodel.FDModel{TMR: 15, TM: 2, Kind: sanmodel.FDExponential}
				return p
			}},
			{"fd-correlated-n5-exp", func() sanmodel.Params {
				p := sanmodel.DefaultParams(5)
				p.FDCorrelated = true
				p.FD = sanmodel.FDModel{TMR: 10, TM: 2, Kind: sanmodel.FDExponential}
				return p
			}},
			{"fd-correlated-n7-det-crash1", func() sanmodel.Params {
				p := sanmodel.DefaultParams(7)
				p.FDCorrelated = true
				p.Crashed = []int{1}
				p.FD = sanmodel.FDModel{TMR: 20, TM: 3, Kind: sanmodel.FDDeterministic}
				return p
			}},
		}
		for _, a := range ablations {
			res, err := sanmodel.SimulateContext(bg, a.p(), 100, 1e6, 7, workers)
			if err != nil {
				t.Fatal(err)
			}
			// Every sample enters the line through a running sum of bit
			// patterns, so a single differing replica shows even when the
			// moments happen to agree.
			var bits uint64
			for i, v := range res.Digest.Exact() {
				bits = bits*1099511628211 + math.Float64bits(v) + uint64(i)
			}
			d := &res.Digest
			fmt.Fprintf(&buf, "ablation %s n=%d truncated=%d mean=%v min=%v max=%v p50=%v p99=%v samples=%016x\n",
				a.name, d.N(), res.Truncated, d.Mean(), d.Min(), d.Max(), d.Quantile(0.5), d.Quantile(0.99), bits)
		}
		return buf.Bytes()
	}
	got := render(1)
	checkGolden(t, "san.golden", got)
	for _, w := range []int{2, 8} {
		if par := render(w); !bytes.Equal(par, got) {
			t.Errorf("SAN output at %d workers differs from the serial run.\n--- got ---\n%s\n--- want ---\n%s", w, par, got)
		}
	}
}
