// Faultstorm: compose a custom adverse-condition scenario with the
// internal/scenario builder — a correlated storm that no single knob of
// the emulator could express: a GC pause storm on the coordinator's
// host, an asymmetric flaky link, a jittered mid-run crash with
// recovery, and a workload burst, all overlapping. The same timeline can
// be written as JSON and run with `ctsan scenario run -spec` (see
// scenario.LoadJSON); this example uses the fluent form and compares the
// storm against the fault-free baseline.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"ctsan/internal/dist"
	"ctsan/internal/scenario"
)

func main() {
	flag.Parse()

	storm := scenario.New("custom-faultstorm", 5).
		WithExecutions(300).
		WithHeartbeat(25, 0).
		WithDoc("overlapping pause storm + flaky link + jittered crash/recover + burst").
		// GC-like freezes on p1, the round-1 coordinator.
		PauseStorm(300, 1500, 1, dist.Exp(50), dist.U(5, 25)).
		// One direction of the p2↔p3 link turns flaky.
		DegradeLink(400, 1400, 2, 3, dist.Exp(1.5), 0.08).
		// p4 crashes somewhere in [600, 700) — drawn per replica — and
		// comes back one second later.
		Crash(600, 4).Jitter(dist.U(0, 100)).
		Recover(1700, 4).
		// Meanwhile the workload doubles its rate.
		WorkloadPhase(800, "burst", 5)

	baseline, err := scenario.Get("paper-baseline")
	if err != nil {
		log.Fatal(err)
	}
	baseline.N = 5 // same cluster size as the storm, for a fair baseline

	reports, err := scenario.RunCampaignContext(context.Background(), scenario.CampaignSpec{
		Scenarios: []*scenario.Scenario{baseline, storm},
		Replicas:  4,
		Workers:   0, // one per CPU; results identical at any count
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("4 replicas each, deterministic at any worker count:")
	scenario.ReportTable(reports).Fprint(os.Stdout)
}
