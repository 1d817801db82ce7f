// Fdtuning: explore the failure-detector tuning trade-off of §2.4 — a
// small timeout T detects crashes quickly but makes wrong suspicions
// (hurting consensus latency); a large T is accurate but slow to detect.
// The example sweeps T as one campaign Study of Emulation points
// (reporting the QoS metrics and the consensus latency as the rows
// stream out in grid order), then measures the crash detection time T_D
// directly by injecting a crash.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"ctsan/campaign"
	"ctsan/internal/fd"
	"ctsan/internal/neko"
	"ctsan/internal/netsim"
	"ctsan/internal/rng"
)

func main() {
	flag.Parse()

	const n = 5
	grid := []float64{2, 5, 10, 20, 40, 80}
	study := campaign.NewStudy("fd-tuning")
	for _, T := range grid {
		study.Add(campaign.LatencyPoint{
			Name: fmt.Sprintf("T=%g", T), N: n, Executions: 300,
			TimeoutT: T, Seed: 7,
		})
	}
	fmt.Printf("%8s %12s %10s %12s %12s\n", "T [ms]", "T_MR [ms]", "T_M [ms]", "latency[ms]", "T_D [ms]")
	err := campaign.Run(context.Background(), study,
		campaign.WithProgress(func(_, _ int, r *campaign.Result) {
			T := grid[r.Index]
			fmt.Printf("%8.0f %12.2f %10.2f %12.3f %12.2f\n",
				T, r.TMR, r.TM, r.Latency.Mean, detectionTime(n, T))
		}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nsmall T: frequent wrong suspicions (small T_MR) inflate latency;")
	fmt.Println("large T: accurate but crashes take ~T+T_h to detect (T_D).")
}

// detectionTime crashes process 2 at t=200 ms and returns the mean time
// until the other processes suspect it permanently (Chen et al.'s T_D).
func detectionTime(n int, timeout float64) float64 {
	params := netsim.DefaultParams(n)
	cluster, err := netsim.New(params, rng.New(99))
	if err != nil {
		log.Fatal(err)
	}
	hist := &fd.History{Keep: true}
	for i := 1; i <= n; i++ {
		stack := neko.NewStack(cluster.Context(neko.ProcessID(i)))
		fd.NewHeartbeat(stack, timeout, 0.7*timeout, hist)
		cluster.Attach(neko.ProcessID(i), stack)
	}
	cluster.Start()
	const crashAt = 200.0
	cluster.CrashAt(2, crashAt)
	cluster.RunUntil(crashAt + 20*timeout + 200)
	tds := fd.DetectionTimes(hist, 2, crashAt, n)
	sum, cnt := 0.0, 0
	for p := 1; p <= n; p++ {
		if p != 2 {
			sum += tds[p]
			cnt++
		}
	}
	return sum / float64(cnt)
}
