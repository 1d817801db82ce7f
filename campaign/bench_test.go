package campaign_test

import (
	"fmt"
	"testing"
	"time"

	"ctsan/campaign"
	"ctsan/internal/scenario"
)

// BenchmarkSANCampaignSerial times the SAN campaign path: a small
// transient study on the serial reference path, covering the point
// fan-out, the calendar-queue simulator, and the streaming digest. It is
// a row of scripts/bench_ab.sh, so a regression in the SAN engine trips
// the same same-host time gate as the emulation path; its allocations
// are the row campaign.allocs_per_study.san_study of the root
// testdata/costs.golden.
func BenchmarkSANCampaignSerial(b *testing.B) {
	study := campaign.NewStudy("bench-san",
		campaign.SANPoint{N: 3, Replicas: 40},
		campaign.SANPoint{N: 5, Replicas: 40},
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := campaign.Run(bg, study,
			campaign.WithSeed(uint64(i)+1),
			campaign.WithWorkers(1),
		); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSANGridTwoWorkers is the benchmark's `san-grid` study
// (benchmark/workloads.go) at quarter size on two workers — six points of
// unequal length, 23 to 91 ms at full size, so two workers handing out
// whole points end on one of them running alone. ns/op is the two-worker
// wall; speedup is the one-worker wall of the same study, measured in the
// same iteration off the clock, over it: 2 is every worker busy to the
// end, and what keeps it there is an idle worker joining the replicas of
// the point still running (1.7 when each point stayed on one worker).
func BenchmarkSANGridTwoWorkers(b *testing.B) {
	const big, small = 7500 / 4, 3750 / 4
	study := campaign.NewStudy("san-grid",
		campaign.SANPoint{Name: "c1-n3", N: 3, Replicas: big},
		campaign.SANPoint{Name: "c1-n5", N: 5, Replicas: big},
		campaign.SANPoint{Name: "c1-n7", N: 7, Replicas: big},
		campaign.SANPoint{Name: "c2-n5", N: 5, Replicas: big, Crashed: []int{1}},
		campaign.SANPoint{Name: "c3-n3", N: 3, Replicas: small, TMR: 30, TM: 2},
		campaign.SANPoint{Name: "c3-n5", N: 5, Replicas: small, TMR: 30, TM: 2},
	)
	twoWorkers(b, study)
}

// BenchmarkEmuGridTwoWorkers is the benchmark's `emu-grid` study
// (benchmark/workloads.go) at a tenth of its size on two workers — six
// Emulation points, each one chain of executions no second worker can
// join, so the study's wall is decided by which chains share a worker.
// Started heaviest first (campaign.Run's start order) they end level;
// started in index order they ended on the long class-3 chain that
// started last. ns/op and speedup as in BenchmarkSANGridTwoWorkers.
func BenchmarkEmuGridTwoWorkers(b *testing.B) {
	const big, small = 31250 / 10, 12500 / 10
	twoWorkers(b, campaign.NewStudy("emu-grid",
		campaign.LatencyPoint{Name: "c1-n3", N: 3, Executions: big},
		campaign.LatencyPoint{Name: "c1-n5", N: 5, Executions: big},
		campaign.LatencyPoint{Name: "c1-n7", N: 7, Executions: big},
		campaign.LatencyPoint{Name: "c2-n5", N: 5, Executions: big, Crashed: []int{1}},
		campaign.LatencyPoint{Name: "c3-n3-T10", N: 3, Executions: small, TimeoutT: 10},
		campaign.LatencyPoint{Name: "c3-n5-T10", N: 5, Executions: small, TimeoutT: 10},
	))
}

// BenchmarkFaultScenariosTwoWorkers is the benchmark's `fault-scenarios`
// study (benchmark/workloads.go) at a fifth of its size on two workers —
// every registry scenario, 21 replicas each: the scenario harness's
// per-replica rewind, timelines, crashes, partitions, pause storms and
// heartbeat timers. ns/op and speedup as in BenchmarkSANGridTwoWorkers.
func BenchmarkFaultScenariosTwoWorkers(b *testing.B) {
	study := campaign.NewStudy("fault-scenarios")
	for _, name := range scenario.Names() {
		study.Add(campaign.ScenarioPoint{Name: name, Replicas: 105 / 5})
	}
	twoWorkers(b, study)
}

// twoWorkers times study on two workers (ns/op) and reports the one-worker
// wall of the same study, measured in the same iteration off the clock,
// over it as speedup.
func twoWorkers(b *testing.B, study *campaign.Study) {
	run := func(workers int) time.Duration {
		start := time.Now()
		if err := campaign.Run(bg, study,
			campaign.WithSeed(1),
			campaign.WithWorkers(workers),
		); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	var one, two time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		one += run(1)
		b.StartTimer()
		two += run(2)
	}
	b.ReportMetric(float64(one)/float64(two), "speedup")
}

// fineGrid is the benchmark's `fine-grid` study (benchmark/workloads.go):
// 750 tiny points cycling SAN / Emulation / Scenario over n = 3, 5, 7 —
// nine point kinds, six distinct engine assemblies.
func fineGrid(points int) *campaign.Study {
	s := campaign.NewStudy("fine-grid")
	for i := 0; i < points; i++ {
		n := []int{3, 5, 7}[(i/3)%3]
		switch i % 3 {
		case 0:
			s.Add(campaign.SANPoint{Name: fmt.Sprintf("san-%04d", i), N: n, Replicas: 20})
		case 1:
			s.Add(campaign.LatencyPoint{Name: fmt.Sprintf("emu-%04d", i), N: n, Executions: 50})
		case 2:
			p := campaign.ScenarioPoint{Name: "paper-baseline", Replicas: 1, Executions: 50}
			if n != 3 {
				p.Name = fmt.Sprintf("baseline-n%d", n)
				p.SpecJSON = []byte(fmt.Sprintf(`{"name":%q,"n":%d}`, p.Name, n))
			}
			s.Add(p)
		}
	}
	return s
}

// BenchmarkFineGridCampaignSerial runs the 750-point fine grid on one
// worker: engines do little per point, so what it measures is what a
// study pays per point around them — freeze, assembly, summary. With the
// per-worker keyed set of assemblies a pass builds six assemblies, not
// 750 (≤ 100,000 allocs/op; 2.76 million when every point built its own).
func BenchmarkFineGridCampaignSerial(b *testing.B) {
	study := fineGrid(750)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := campaign.Run(bg, study,
			campaign.WithSeed(1),
			campaign.WithWorkers(1),
		); err != nil {
			b.Fatal(err)
		}
	}
}
