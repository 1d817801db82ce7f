package campaign_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"ctsan/campaign"
	"ctsan/internal/experiment"
	"ctsan/internal/sanmodel"
	"ctsan/internal/scenario"
)

var bg = context.Background()

func sameSamples(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: sample %d = %v, want %v (must be bit-identical)", what, i, got[i], want[i])
		}
	}
}

// TestEmulationMatchesInternalSweep pins the Emulation engine: a latency
// study must be bit-identical, at 1, 2, and 8 workers, to running its
// specs one after the other through experiment.RunLatencyContext.
func TestEmulationMatchesInternalSweep(t *testing.T) {
	ns := []int{3, 5}
	const execs, seed = 60, 11
	specs := make([]experiment.LatencySpec, len(ns))
	points := make([]campaign.Point, len(ns))
	for i, n := range ns {
		specs[i] = experiment.LatencySpec{N: n, Executions: execs, Seed: seed}
		points[i] = campaign.LatencyPoint{N: n, Executions: execs, Seed: seed}
	}
	ref := make([]*experiment.LatencyResult, len(specs))
	for i, spec := range specs {
		var err error
		if ref[i], err = experiment.RunLatencyContext(bg, spec); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []int{1, 2, 8} {
		results, err := campaign.RunCollect(bg, campaign.NewStudy("emu", points...), campaign.WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		for i := range points {
			sameSamples(t, "emulation point", results[i].Samples(), ref[i].Digest.Exact())
			if results[i].Aborted != ref[i].Aborted {
				t.Fatalf("workers=%d: aborted %d, want %d", w, results[i].Aborted, ref[i].Aborted)
			}
		}
	}
}

// TestSANMatchesInternalSimulate pins the SAN engine against the
// pre-refactor sanmodel.SimulateContext at 1, 2, and 8 workers.
func TestSANMatchesInternalSimulate(t *testing.T) {
	const n, replicas, tmax, seed = 3, 250, 1e6, 9
	p := sanmodel.DefaultParams(n)
	ref, err := sanmodel.SimulateContext(bg, p, replicas, tmax, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 8} {
		results, err := campaign.RunCollect(bg,
			campaign.NewStudy("san", campaign.SANPoint{N: n, Replicas: replicas, Tmax: tmax, Seed: seed}),
			campaign.WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		sameSamples(t, "san point", results[0].Samples(), ref.Digest.Exact())
		if results[0].Aborted != ref.Truncated {
			t.Fatalf("workers=%d: aborted %d, want truncated %d", w, results[0].Aborted, ref.Truncated)
		}
	}
}

// TestScenarioMatchesInternalCampaign pins the Scenario engine against
// the pre-refactor scenario.RunCampaignContext at 1, 2, and 8 workers.
func TestScenarioMatchesInternalCampaign(t *testing.T) {
	s, err := scenario.Get("paper-baseline")
	if err != nil {
		t.Fatal(err)
	}
	const replicas, execs, seed = 3, 40, 21
	refReports, err := scenario.RunCampaignContext(bg, scenario.CampaignSpec{
		Scenarios:  []*scenario.Scenario{s},
		Replicas:   replicas,
		Executions: execs,
		Workers:    1,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := refReports[0]
	for _, w := range []int{1, 2, 8} {
		results, err := campaign.RunCollect(bg,
			campaign.NewStudy("scn", campaign.ScenarioPoint{
				Name: "paper-baseline", Replicas: replicas, Executions: execs, Seed: seed,
			}),
			campaign.WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		r := results[0]
		sameSamples(t, "scenario point", r.Samples(), ref.Digest.Exact())
		if r.Aborted != ref.Aborted || r.Suspicions != ref.Suspicions ||
			r.WrongSuspicions != ref.WrongSuspicions || r.Events != ref.DESEvents ||
			r.Texp != ref.Texp {
			t.Fatalf("workers=%d: flattened report diverged: %+v vs %+v", w, r, ref)
		}
	}
}

// TestStudyDeterministicAcrossWorkers runs a mixed three-engine study —
// the API's reason to exist — and requires bit-identical results and
// identical emission order at 1, 2, 3 and 8 workers. The shapes after it
// are the ones where workers run out of points while points still run:
// fewer points than workers, and a last point far longer than the rest —
// there the idle workers join the replicas of the point in flight, and
// every result must still encode to the bytes of the one-worker run.
func TestStudyDeterministicAcrossWorkers(t *testing.T) {
	study := func() *campaign.Study {
		return campaign.NewStudy("mixed",
			campaign.SANPoint{Name: "model", N: 3, Replicas: 150, Tmax: 1e6},
			campaign.LatencyPoint{Name: "measured", N: 3, Executions: 50},
			campaign.ScenarioPoint{Name: "paper-baseline", Replicas: 2, Executions: 30},
		)
	}
	ref, err := campaign.RunCollect(bg, study(), campaign.WithSeed(5), campaign.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 3 {
		t.Fatalf("expected 3 results, got %d", len(ref))
	}
	for _, w := range []int{2, 3, 8} {
		got, err := campaign.RunCollect(bg, study(), campaign.WithSeed(5), campaign.WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref {
			if got[i].Index != i || got[i].Point != ref[i].Point {
				t.Fatalf("workers=%d: emission order broken at %d: %q", w, i, got[i].Point)
			}
			sameSamples(t, "mixed study point "+ref[i].Point, got[i].Samples(), ref[i].Samples())
			if got[i].Seed != ref[i].Seed {
				t.Fatalf("workers=%d: derived seed changed: %d vs %d", w, got[i].Seed, ref[i].Seed)
			}
		}
	}

	encoded := func(s *campaign.Study, workers int) []byte {
		t.Helper()
		results, err := campaign.RunCollect(bg, s, campaign.WithSeed(5), campaign.WithWorkers(workers))
		if err != nil {
			t.Fatalf("%s at %d workers: %v", s.Name, workers, err)
		}
		out, err := json.Marshal(results)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	class3 := campaign.SANPoint{N: 5, Replicas: 400, TMR: 30, TM: 2, Tmax: 1e5}
	faults := campaign.ScenarioPoint{Name: "rolling-crash", Replicas: 6, Executions: 40}
	for _, s := range []*campaign.Study{
		campaign.NewStudy("one-san-point", class3),
		campaign.NewStudy("one-scenario-point", faults),
		campaign.NewStudy("two-points", faults, class3),
		campaign.NewStudy("long-tail",
			campaign.SANPoint{N: 3, Replicas: 40},
			campaign.LatencyPoint{N: 3, Executions: 20},
			campaign.ScenarioPoint{Name: "paper-baseline", Replicas: 1, Executions: 20},
			campaign.SANPoint{N: 5, Replicas: 60, Crashed: []int{1}},
			campaign.SANPoint{N: 7, Replicas: 1500, TMR: 30, TM: 2, FDExponential: true, Tmax: 1e5},
		),
	} {
		want := encoded(s, 1)
		for _, w := range []int{2, 3, 8} {
			if got := encoded(s, w); !bytes.Equal(got, want) {
				t.Errorf("%s: results at %d workers differ from the one-worker encoding\n got %s\nwant %s", s.Name, w, got, want)
			}
		}
	}
}

// TestCancellationAbortsMidCampaign cancels the context from the progress
// callback after the first emitted result: the run must stop promptly and
// return the clean context error, with at most a few in-flight points
// completing after the cancel.
func TestCancellationAbortsMidCampaign(t *testing.T) {
	var points []campaign.Point
	for i := 0; i < 40; i++ {
		points = append(points, campaign.LatencyPoint{N: 3, Executions: 40})
	}
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	emitted := 0
	err := campaign.Run(ctx, campaign.NewStudy("cancel-me", points...),
		campaign.WithWorkers(2),
		campaign.WithProgress(func(done, total int, _ *campaign.Result) {
			emitted = done
			if done == 1 {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emitted >= len(points) {
		t.Fatalf("all %d points ran despite cancellation after the first", len(points))
	}
}

// TestCancellationInsideSinglePoint cancels during a single long
// emulation point: the execution-boundary check must stop it without
// waiting for the whole campaign.
func TestCancellationInsideSinglePoint(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	study := campaign.NewStudy("one-long-point",
		campaign.LatencyPoint{N: 3, Executions: 100000})
	done := make(chan error, 1)
	go func() {
		_, err := campaign.RunCollect(ctx, study, campaign.WithWorkers(1))
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestPrepareFailsFast: an invalid late point must fail before any
// campaign runs (streaming must not emit partial output first).
func TestPrepareFailsFast(t *testing.T) {
	var emitted int
	err := campaign.Run(bg, campaign.NewStudy("bad",
		campaign.LatencyPoint{N: 3, Executions: 20},
		campaign.ScenarioPoint{Name: "no-such-scenario"},
	), campaign.WithProgress(func(int, int, *campaign.Result) { emitted++ }))
	if err == nil || !strings.Contains(err.Error(), "no-such-scenario") {
		t.Fatalf("err = %v, want unknown-scenario prepare error", err)
	}
	if emitted != 0 {
		t.Fatalf("%d results emitted before the prepare error", emitted)
	}
}

// TestNegativeTimeoutRejected: a negative heartbeat timeout must fail
// loudly, not silently fall back to the oracle detector.
func TestNegativeTimeoutRejected(t *testing.T) {
	err := campaign.Run(bg, campaign.NewStudy("neg-T",
		campaign.LatencyPoint{N: 3, Executions: 10, TimeoutT: -5}))
	if err == nil || !strings.Contains(err.Error(), "negative heartbeat timeout") {
		t.Fatalf("err = %v, want negative-timeout error", err)
	}
}

// TestEmptyStudyRejected pins the descriptive error for empty studies.
func TestEmptyStudyRejected(t *testing.T) {
	if err := campaign.Run(bg, campaign.NewStudy("empty")); err == nil {
		t.Fatal("empty study must error")
	}
	if err := campaign.Run(bg, nil); err == nil {
		t.Fatal("nil study must error")
	}
}

// jsonl runs the study through RunCollect and returns its JSON Lines:
// json.Marshal of each result and a newline, in point order — the bytes
// every surface that prints results streams.
func jsonl(t *testing.T, study *campaign.Study, opts ...campaign.Option) []byte {
	t.Helper()
	results, err := campaign.RunCollect(bg, study, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range results {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	return buf.Bytes()
}

// TestRunCollectOrderedStream: RunCollect returns every result in index
// order on a parallel run, each one JSON line naming its point, and the
// caller's progress callback still fires once per point.
func TestRunCollectOrderedStream(t *testing.T) {
	study := campaign.NewStudy("collect",
		campaign.SANPoint{Name: "a", N: 3, Replicas: 60, Tmax: 1e6},
		campaign.SANPoint{Name: "b", N: 3, Replicas: 60, Tmax: 1e6},
		campaign.SANPoint{Name: "c", N: 3, Replicas: 60, Tmax: 1e6},
	)
	var progressed []string
	lines := strings.Split(strings.TrimSpace(string(jsonl(t, study,
		campaign.WithWorkers(8),
		campaign.WithProgress(func(_, _ int, last *campaign.Result) {
			progressed = append(progressed, last.Point)
		})))), "\n")
	if len(lines) != 3 || len(progressed) != 3 {
		t.Fatalf("expected 3 results, got %d lines / %d progress calls", len(lines), len(progressed))
	}
	for i, want := range []string{"a", "b", "c"} {
		if progressed[i] != want {
			t.Fatalf("progress order: position %d is %q", i, progressed[i])
		}
		if !strings.Contains(lines[i], `"point":"`+want+`"`) {
			t.Fatalf("jsonl line %d does not mention point %q: %s", i, want, lines[i])
		}
	}
}

// TestProgressOrderingGuarantees pins the WithProgress contract on a
// parallel campaign: calls are sequential (never concurrent) and arrive
// in point-index order with done counting 1..total. Run through
// RunCollect, the caller's callback still sees every call, and RunCollect
// returns the very results the callback saw, in the same order.
func TestProgressOrderingGuarantees(t *testing.T) {
	const points = 12
	study := campaign.NewStudy("progress")
	names := make([]string, points)
	for i := 0; i < points; i++ {
		names[i] = fmt.Sprintf("p%02d", i)
		study.Add(campaign.SANPoint{Name: names[i], N: 3, Replicas: 40, Tmax: 1e6})
	}

	var (
		inCallback atomic.Int32
		calls      []int // done values, in call order
		results    []*campaign.Result
	)
	collected, err := campaign.RunCollect(bg, study,
		campaign.WithWorkers(8),
		campaign.WithProgress(func(done, total int, last *campaign.Result) {
			// Sequential: no other callback may be in flight.
			if inCallback.Add(1) != 1 {
				t.Error("progress callbacks overlap")
			}
			defer inCallback.Add(-1)
			// Yield so an overlapping call (a bug) would actually get
			// scheduled and trip the counter above.
			runtime.Gosched()
			if total != points {
				t.Errorf("total = %d, want %d", total, points)
			}
			calls = append(calls, done)
			results = append(results, last)
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != points || len(collected) != points {
		t.Fatalf("%d progress calls and %d results collected, want %d", len(calls), len(collected), points)
	}
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("call %d reported done=%d, want %d (point-index order)", i, done, i+1)
		}
		if results[i].Point != names[i] {
			t.Fatalf("call %d carried result %q, want %q", i, results[i].Point, names[i])
		}
		if collected[i] != results[i] {
			t.Fatalf("RunCollect's result %d is not the one the callback saw", i)
		}
	}
}

// TestHeartbeatPointAllocsIndependentOfExecutions: a heartbeat point's
// detectors fold their QoS per pair as they record transitions, so ten
// times the executions allocate about what the shorter point does —
// the digest's exact buffer is what grows. At T = 1 ms, where the
// detectors flap most, the point used to keep every transition and copy
// and sort them all to estimate QoS: 19 MB at 200 executions, 228 MB at
// 2,000.
func TestHeartbeatPointAllocsIndependentOfExecutions(t *testing.T) {
	allocated := func(executions int) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := campaign.RunCollect(bg,
			campaign.NewStudy("flapping", campaign.LatencyPoint{N: 5, Executions: executions, TimeoutT: 1}),
			campaign.WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := allocated(200), allocated(2000)
	t.Logf("allocated %d KiB at 200 executions, %d KiB at 2,000", short>>10, long>>10)
	if long > 2*short {
		t.Errorf("2,000 executions allocated %d bytes, more than twice the %d of 200", long, short)
	}
}
