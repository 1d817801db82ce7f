// Ablations of the SAN model's and the emulator's modeling choices, each
// reporting its headline quantity as a custom metric, plus
// micro-benchmarks of the two engines and of the §6 extensions. The
// paper's tables and figures are benchmarked end to end by cmd/ctsan's
// BenchmarkRepro (`ctsan repro -what all`).
package ctsan

import (
	"context"
	"testing"

	"ctsan/internal/experiment"
	"ctsan/internal/neko"
	"ctsan/internal/netsim"
	"ctsan/internal/rng"
	"ctsan/internal/san"
	"ctsan/internal/sanmodel"
)

// BenchmarkAblationBroadcastModel compares the paper's single-message
// broadcast model with the unicast-broadcast ablation on the n = 3
// participant-crash scenario (the Table 1 anomaly, §5.3).
func BenchmarkAblationBroadcastModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(unicast bool, crashed []int) float64 {
			p := sanmodel.DefaultParams(3)
			p.UnicastBroadcast = unicast
			p.Crashed = crashed
			res, err := sanmodel.SimulateContext(context.Background(), p, 800, 1e6, uint64(i)+1, 0)
			if err != nil {
				b.Fatal(err)
			}
			return res.Digest.Mean()
		}
		deltaPaper := run(false, []int{2}) - run(false, nil)
		deltaUni := run(true, []int{2}) - run(true, nil)
		b.ReportMetric(deltaPaper*1000, "paper-model-delta-us")
		b.ReportMetric(deltaUni*1000, "unicast-model-delta-us")
	}
}

// BenchmarkAblationFDCorrelation compares independent per-pair FD
// submodels (the paper's assumption) with fully correlated ones at bad
// QoS — the §5.4 mismatch mechanism.
func BenchmarkAblationFDCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(correlated bool) float64 {
			p := sanmodel.DefaultParams(5)
			p.FD = sanmodel.FDModel{TMR: 8, TM: 2, Kind: sanmodel.FDExponential}
			p.FDCorrelated = correlated
			res, err := sanmodel.SimulateContext(context.Background(), p, 500, 1e6, uint64(i)+1, 0)
			if err != nil {
				b.Fatal(err)
			}
			return res.Digest.Mean()
		}
		b.ReportMetric(run(false), "independent-ms")
		b.ReportMetric(run(true), "correlated-ms")
	}
}

// BenchmarkAblationSchedulerQuantum measures the Fig. 9(a) peak mechanism:
// class-3 latency at T = 10 ms with and without the 10 ms scheduler-grid
// deferrals.
func BenchmarkAblationSchedulerQuantum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := func(gridProb float64) float64 {
			params := netsim.DefaultParams(5)
			params.GridProb = gridProb
			res, err := experiment.RunLatencyContext(context.Background(), experiment.LatencySpec{
				N: 5, Executions: 150, Seed: uint64(i) + 1,
				Params: params, FDMode: experiment.FDHeartbeat, TimeoutT: 10,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res.Digest.Mean()
		}
		b.ReportMetric(run(0.35), "with-quantum-ms")
		b.ReportMetric(run(0), "without-quantum-ms")
	}
}

// BenchmarkSANEngine measures raw SAN simulator throughput on the n = 5
// consensus model (events per op reported by Go's timer).
func BenchmarkSANEngine(b *testing.B) {
	model, err := sanmodel.Build(sanmodel.DefaultParams(5))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := san.NewSim(model.SAN, rng.New(uint64(i)+1))
		if _, stopped := sim.Run(1e6, model.Done); !stopped {
			b.Fatal("did not decide")
		}
	}
}

// BenchmarkClusterEmulator measures one class-1 consensus execution on the
// emulated cluster.
func BenchmarkClusterEmulator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunLatencyContext(context.Background(), experiment.LatencySpec{
			N: 5, Executions: 1, Seed: uint64(i) + 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterEmulatorClass3 measures a heartbeat-FD execution (much
// heavier: n² heartbeats flow continuously).
func BenchmarkClusterEmulatorClass3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunLatencyContext(context.Background(), experiment.LatencySpec{
			N: 5, Executions: 5, Seed: uint64(i) + 1,
			FDMode: experiment.FDHeartbeat, TimeoutT: 10,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrashScenario measures a class-2 (coordinator crash) execution.
func BenchmarkCrashScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunLatencyContext(context.Background(), experiment.LatencySpec{
			N: 5, Executions: 1, Seed: uint64(i) + 1, Crashed: []neko.ProcessID{1},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThroughputSequentialConsensus measures the §6 future-work
// extension: chained consensus instances (#k+1 starts when #k decides).
func BenchmarkThroughputSequentialConsensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunThroughputContext(context.Background(), experiment.ThroughputSpec{
			N: 5, Executions: 150, Warmup: 30, Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rate, "decisions/s")
		b.ReportMetric(res.InterDecision.Mean(), "inter-decision-ms")
	}
}

// BenchmarkCrashTransient measures the §6 transient-behaviour extension:
// latency around a mid-campaign coordinator crash under a live heartbeat
// failure detector.
func BenchmarkCrashTransient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunCrashTransientContext(context.Background(), experiment.CrashTransientSpec{
			N: 5, CrashID: 1, CrashAfter: 10, Executions: 40, TimeoutT: 20, Seed: uint64(i) + 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SteadyBefore, "steady-before-ms")
		b.ReportMetric(res.PeakDuring, "transient-peak-ms")
		b.ReportMetric(res.DetectionTime, "detection-ms")
	}
}
