package sanmodel

import (
	"context"
	"testing"
)

// TestUnicastBroadcastReproducesAnomaly: with broadcasts modeled as n−1
// unicasts (the implementation's behaviour), the SAN must reproduce the
// measured n = 3 participant-crash latency *increase* that the paper's
// single-broadcast model misses (§5.3).
func TestUnicastBroadcastReproducesAnomaly(t *testing.T) {
	run := func(unicast bool, crashed []int) float64 {
		p := DefaultParams(3)
		p.UnicastBroadcast = unicast
		p.Crashed = crashed
		res, err := SimulateContext(context.Background(), p, 1500, 1e6, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest.Mean()
	}
	// Paper model: participant crash decreases latency at n=3.
	if part, base := run(false, []int{2}), run(false, nil); part >= base {
		t.Errorf("single-broadcast model: participant crash %.3f !< base %.3f", part, base)
	}
	// Unicast ablation: the proposal to the crashed process delays the
	// proposal to the live one — latency increases, like the measurement.
	if part, base := run(true, []int{2}), run(true, nil); part <= base {
		t.Errorf("unicast-broadcast model: participant crash %.3f !> base %.3f (anomaly not reproduced)", part, base)
	}
}

// TestCorrelatedFDBuilds: the correlated-FD ablation builds, runs and
// produces a different latency than the independent model at bad QoS.
func TestCorrelatedFDBuilds(t *testing.T) {
	run := func(correlated bool) float64 {
		p := DefaultParams(5)
		p.FD = FDModel{TMR: 10, TM: 2, Kind: FDExponential}
		p.FDCorrelated = correlated
		res, err := SimulateContext(context.Background(), p, 800, 1e6, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Digest.Mean()
	}
	indep, corr := run(false), run(true)
	if indep <= 0 || corr <= 0 {
		t.Fatal("non-positive latencies")
	}
	if indep == corr {
		t.Fatal("correlated and independent FD models identical (ablation inert)")
	}
}
