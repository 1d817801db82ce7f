package campaign_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ctsan/campaign"
	"ctsan/internal/checkpoint"
	"ctsan/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestEmulationGolden pins the values of the Emulation path in tier-1:
// the three run classes of §2.4 through the public study API (oracle at
// n=3/5, one initial crash, the heartbeat detector), plus the two §6
// harnesses that share the replica assembly (crash transient, chained
// throughput). Everything is seeded and serial, so a values-only drift
// means the emulation engines changed behaviour. Regenerate with
// `go test ./campaign -run TestEmulationGolden -update` after a
// deliberate change.
func TestEmulationGolden(t *testing.T) {
	var buf bytes.Buffer
	study := campaign.NewStudy("emulation-golden",
		campaign.LatencyPoint{Name: "oracle-n3", N: 3, Executions: 60},
		campaign.LatencyPoint{Name: "oracle-n5", N: 5, Executions: 60},
		campaign.LatencyPoint{Name: "crash1-n5", N: 5, Executions: 60, Crashed: []int{1}},
		campaign.LatencyPoint{Name: "heartbeat-n3-T10", N: 3, Executions: 60, TimeoutT: 10},
	)
	buf.Write(jsonl(t, study, campaign.WithSeed(1), campaign.WithWorkers(1)))
	tr, err := experiment.RunCrashTransientContext(bg, experiment.CrashTransientSpec{
		N: 3, CrashID: 1, CrashAfter: 10, Executions: 25, TimeoutT: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "transient crash_at=%v detection=%v before=%v peak=%v after=%v latency=%v\n",
		tr.CrashAt, tr.DetectionTime, tr.SteadyBefore, tr.PeakDuring, tr.SteadyAfter, tr.Latency)
	for _, mode := range []experiment.FDMode{experiment.FDOracle, experiment.FDHeartbeat} {
		th, err := experiment.RunThroughputContext(bg, experiment.ThroughputSpec{
			N: 3, Executions: 40, Warmup: 5, FDMode: mode, TimeoutT: 10, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "throughput mode=%d rate=%v decided=%d aborted=%d duration=%v events=%d inter_mean=%v\n",
			mode, th.Rate, th.Decided, th.Aborted, th.Duration, th.Events, th.InterDecision.Mean())
	}
	checkGolden(t, "emulation.golden", buf.Bytes())
}

// checkGolden compares got with testdata/<name>, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		// Atomic replace: an interrupted -update must not leave a torn golden.
		if err := checkpoint.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverged from %s.\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}
