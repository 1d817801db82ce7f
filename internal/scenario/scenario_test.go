package scenario

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"ctsan/internal/dist"
	"ctsan/internal/experiment"
	"ctsan/internal/neko"
	"ctsan/internal/netsim"
	"ctsan/internal/obs"
	"ctsan/internal/rng"
)

func TestRegistryBuiltins(t *testing.T) {
	names := Names()
	if len(names) < 6 {
		t.Fatalf("registry holds %d scenarios, want >= 6: %v", len(names), names)
	}
	for _, want := range []string{"paper-baseline", "crash-n3-anomaly", "rolling-crash",
		"split-brain", "gc-storm", "burst-load"} {
		s, err := Get(want)
		if err != nil {
			t.Fatalf("built-in %s: %v", want, err)
		}
		if s.Name != want {
			t.Errorf("Get(%s) returned scenario named %q", want, s.Name)
		}
		if strings.TrimSpace(s.Doc) == "" {
			t.Errorf("built-in %s has no doc string", want)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("built-in %s fails validation: %v", want, err)
		}
	}
	// Get returns fresh values: mutating one must not leak into the next.
	a, _ := Get("paper-baseline")
	a.Executions = 1
	b, _ := Get("paper-baseline")
	if b.Executions == 1 {
		t.Error("Get returned a shared scenario instance")
	}
	if _, err := Get("no-such-scenario"); err == nil {
		t.Error("unknown scenario name accepted")
	}
}

func TestListMatchesRegistry(t *testing.T) {
	infos := List()
	names := Names()
	if len(infos) != len(names) {
		t.Fatalf("List returned %d entries, registry holds %d", len(infos), len(names))
	}
	for i, info := range infos {
		if info.Name != names[i] {
			t.Errorf("entry %d: name %q, want %q (Names order)", i, info.Name, names[i])
		}
		s, err := Get(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		if info.Doc != s.Doc || info.N != s.N || info.Executions != s.Executions ||
			info.Events != len(s.Events) {
			t.Errorf("%s: Info diverges from the scenario value", info.Name)
		}
		// The effective gap and heartbeat period are materialized: what
		// the harness runs, no zero.
		shape, plan, err := check(s, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if info.Gap != plan.Gap || info.Gap == 0 || info.PeriodTh != shape.PeriodTh {
			t.Errorf("%s: gap %g, period %g; the harness runs %g, %g", info.Name, info.Gap, info.PeriodTh, plan.Gap, shape.PeriodTh)
		}
		if info.TimeoutT > 0 && info.PeriodTh == 0 {
			t.Errorf("%s: PeriodTh not materialized", info.Name)
		}
	}
}

func TestValidateRejectsMalformedScenarios(t *testing.T) {
	cases := []struct {
		name string
		s    *Scenario
	}{
		{"n too small", New("x", 1)},
		{"empty name", New("", 3)},
		{"crash out of range", New("x", 3).Crash(10, 9)},
		{"recover out of range", New("x", 3).Recover(10, 0)},
		{"partition empty", New("x", 3).Partition(10)},
		{"partition out of range", New("x", 3).Partition(10, []neko.ProcessID{7})},
		{"link out of range", New("x", 3).DegradeLink(10, 0, 1, 9, nil, 0)},
		{"link loss > 1", New("x", 3).DegradeLink(10, 0, 1, 2, nil, 1.5)},
		{"link empty window", New("x", 3).DegradeLink(10, 5, 1, 2, nil, 0.1)},
		{"storm empty window", New("x", 3).PauseStorm(10, 10, 1, dist.Exp(5), dist.Det(1))},
		{"storm no dists", New("x", 3).add(Event{Kind: KindPauseStorm, At: 0, Until: 10, P: 1})},
		{"workload bad gap", New("x", 3).WorkloadPhase(10, "p", 0)},
		{"negative time", New("x", 3).Crash(-1, 2)},
		{"majority crashed", New("x", 3).WithInitialCrash(1, 2)},
		{"period without timeout", func() *Scenario { s := New("x", 3); s.PeriodTh = 5; return s }()},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestLoadJSON(t *testing.T) {
	s, err := LoadJSON([]byte(`{
		"name": "json-split", "n": 5, "timeout_t": 30,
		"pause_every": {"kind":"exp","mean":50},
		"pause_dur": {"kind":"mixture","mix":[
			{"p":0.5,"d":{"kind":"det","v":2}},
			{"p":0.5,"d":{"kind":"uniform","lo":5,"hi":10}}]},
		"events": [
			{"kind":"partition","at":500,"groups":[[1,2],[3,4,5]]},
			{"kind":"heal","at":900},
			{"kind":"crash","at":1000,"p":2,"at_jitter":{"kind":"uniform","lo":0,"hi":50}},
			{"kind":"link","at":100,"until":400,"from":1,"to":2,"loss":0.1,
			 "extra":{"kind":"exp","mean":2}},
			{"kind":"pause-storm","at":200,"until":600,"p":1,
			 "every":{"kind":"exp","mean":60},"dur":{"kind":"uniform","lo":5,"hi":30}},
			{"kind":"workload","at":700,"label":"burst","gap":2}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.TimeoutT != 30 || len(s.Events) != 6 {
		t.Fatalf("parsed scenario: %+v", s)
	}
	// The execution count defaults here; the gap is left to the harness.
	if s.Gap != 0 || s.Executions != 200 {
		t.Fatalf("defaults: gap=%g execs=%d, want 0 and 200", s.Gap, s.Executions)
	}
	if s.PauseEvery == nil || math.Abs(s.PauseEvery.Mean()-50) > 1e-12 {
		t.Fatalf("pause_every = %v", s.PauseEvery)
	}
	if s.PauseDur == nil || math.Abs(s.PauseDur.Mean()-(0.5*2+0.5*7.5)) > 1e-12 {
		t.Fatalf("pause_dur mean = %v", s.PauseDur.Mean())
	}
	if s.Events[2].AtJitter == nil || s.Events[3].Extra == nil || s.Events[4].Every == nil {
		t.Fatal("event distributions not converted")
	}
	// A loaded scenario must actually run.
	res, err := Run(s, RunConfig{Executions: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decided+res.Aborted != 40 {
		t.Fatalf("executions accounted: %d decided + %d aborted", res.Decided, res.Aborted)
	}

	for _, bad := range []string{
		`{`,
		`{"name":"x","n":3,"events":[{"kind":"warp","at":1}]}`,
		`{"name":"x","n":3,"pause_every":{"kind":"nope"}}`,
		`{"name":"x","n":3,"events":[{"kind":"crash","at":1,"p":9}]}`,
		`{"name":"x","n":3,"pause_dur":{"kind":"mixture","mix":[{"p":0.7,"d":{"kind":"det","v":1}}]}}`,
	} {
		if _, err := LoadJSON([]byte(bad)); err == nil {
			t.Errorf("bad spec accepted: %s", bad)
		}
	}
}

// newCompileCluster builds a throwaway cluster for timeline-compilation
// tests.
func newCompileCluster(t *testing.T, n int) *netsim.Cluster {
	t.Helper()
	c, err := netsim.New(netsim.Params{N: n}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTimelineGroundTruth(t *testing.T) {
	s := New("tl", 3).
		Crash(100, 2).Recover(200, 2).
		Crash(300, 2).
		WorkloadPhase(150, "burst", 2).
		WorkloadPhase(400, "calm", 20)
	tl, err := s.compile(newCompileCluster(t, 3), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		p    neko.ProcessID
		at   float64
		want bool
	}{
		{2, 50, true}, {2, 100, false}, {2, 150, false}, {2, 200, true},
		{2, 250, true}, {2, 300, false}, {2, 1e9, false},
		{1, 150, true}, {3, 350, true},
	} {
		if got := tl.UpAt(c.p, c.at); got != c.want {
			t.Errorf("UpAt(p%d, %g) = %v, want %v", c.p, c.at, got, c.want)
		}
	}
	for _, c := range []struct {
		at   float64
		want float64
	}{{0, 10}, {149, 10}, {150, 2}, {399, 2}, {400, 20}, {1e9, 20}} {
		if got := tl.GapAt(c.at); got != c.want {
			t.Errorf("GapAt(%g) = %g, want %g", c.at, got, c.want)
		}
	}
}

func TestJitterDrawnInstants(t *testing.T) {
	s := New("jit", 3).Crash(100, 2).Jitter(dist.U(0, 50))
	compileDown := func(seed uint64) float64 {
		tl, err := s.compile(newCompileCluster(t, 3), rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return tl.down[2][0].from
	}
	a, b, c := compileDown(1), compileDown(1), compileDown(2)
	if a != b {
		t.Fatalf("same seed drew different instants: %v vs %v", a, b)
	}
	if a == c {
		t.Fatalf("different seeds drew the same jitter %v", a)
	}
	if a < 100 || a >= 150 {
		t.Fatalf("jittered instant %v outside [100,150)", a)
	}
}

// TestJitterPastLinkWindowSkipsRule: a drawn start at or beyond the
// declared window end must leave the link clean, not install a rule that
// is never cleared.
func TestJitterPastLinkWindowSkipsRule(t *testing.T) {
	s := New("jl", 2).DegradeLink(10, 20, 1, 2, nil, 1.0).Jitter(dist.Det(50))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	c := newCompileCluster(t, 2)
	got := 0
	stack := neko.NewStack(c.Context(2))
	stack.Handle("ping", func(neko.Message) { got++ })
	c.Attach(2, stack)
	if _, err := s.compile(c, rng.New(1)); err != nil {
		t.Fatal(err)
	}
	c.Start()
	ctx := c.Context(1)
	c.AtGlobal(70, func() { ctx.Send(neko.Message{To: 2, Type: "ping"}) })
	c.RunUntil(200)
	if got != 1 {
		t.Fatalf("delivery after an empty jittered link window: got %d, want 1 "+
			"(rule must not outlive its declared window)", got)
	}
}

// TestPaperBaselineMatchesExperiment is the acceptance anchor: the
// paper-baseline scenario must reproduce the §4 class-1 latency campaign
// of the experiment harness within tolerance. Per-campaign means carry a
// systematic offset from the replica's drawn clock skews, so both sides
// average several independent campaigns.
func TestPaperBaselineMatchesExperiment(t *testing.T) {
	const execs, reps = 300, 4
	s, err := Get("paper-baseline")
	if err != nil {
		t.Fatal(err)
	}
	reports, err := RunCampaignContext(context.Background(), CampaignSpec{
		Scenarios: []*Scenario{s}, Replicas: reps, Executions: execs, Workers: 0, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := reports[0]
	if rep.Aborted != 0 {
		t.Fatalf("paper-baseline aborted %d executions", rep.Aborted)
	}
	if rep.Decided != execs*reps {
		t.Fatalf("decided %d, want %d", rep.Decided, execs*reps)
	}

	var expMean float64
	for i := range reps {
		r, err := experiment.RunLatencyContext(context.Background(),
			experiment.LatencySpec{N: s.N, Executions: execs, Seed: uint64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		expMean += r.Digest.Mean()
	}
	expMean /= reps

	if diff := math.Abs(rep.Mean - expMean); diff > 0.15*expMean {
		t.Fatalf("paper-baseline mean %.3f ms vs experiment harness %.3f ms: diff %.3f beyond 15%%",
			rep.Mean, expMean, diff)
	}
	// No faults are injected, so there must be no suspicions at all.
	if rep.Suspicions != 0 || rep.WrongSuspicions != 0 {
		t.Fatalf("fault-free baseline recorded %d suspicions", rep.Suspicions)
	}
}

// TestCampaignDeterministicAcrossWorkers pins the determinism contract
// for the scenario grid: a campaign over every registered scenario must
// produce byte-identical reports at 1, 2, and 8 workers.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	var all []*Scenario
	for _, name := range Names() {
		s, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, s)
	}
	run := func(workers int) []*Report {
		reports, err := RunCampaignContext(context.Background(), CampaignSpec{
			Scenarios:  all,
			Replicas:   2,
			Executions: 60,
			Workers:    workers,
			Seed:       5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return reports
	}
	ref := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); !reflect.DeepEqual(ref, got) {
			t.Fatalf("campaign with %d workers differs from serial reference", w)
		}
	}
}

func TestSplitBrainSemantics(t *testing.T) {
	s, err := Get("split-brain")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, RunConfig{Executions: 140, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Nobody actually crashes, so every suspicion is a wrong suspicion,
	// and the partition must cause plenty on both sides.
	if res.Suspicions == 0 {
		t.Fatal("partition produced no suspicions")
	}
	if res.WrongSuspicions != res.Suspicions {
		t.Fatalf("crash-free partition: %d/%d suspicions classified wrong, want all",
			res.WrongSuspicions, res.Suspicions)
	}
	// The majority side keeps deciding through the partition.
	if res.Decided < res.Aborted || res.Decided < 100 {
		t.Fatalf("decided %d / aborted %d: majority side should decide through the partition",
			res.Decided, res.Aborted)
	}
}

func TestRollingCrashDetectsAndRecovers(t *testing.T) {
	s, err := Get("rolling-crash")
	if err != nil {
		t.Fatal(err)
	}
	// 120 executions span the first crash (400 ms) and recovery (900 ms).
	res, err := Run(s, RunConfig{Executions: 120, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	right := res.Suspicions - res.WrongSuspicions
	if right < 4 {
		t.Fatalf("only %d right suspicions; the 4 survivors must each detect p2's crash", right)
	}
	if res.Decided < 100 {
		t.Fatalf("decided %d/120: campaign must keep deciding through crash and recovery", res.Decided)
	}
}

func TestBurstLoadRaisesThroughput(t *testing.T) {
	burst, err := Get("burst-load")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Get("paper-baseline")
	if err != nil {
		t.Fatal(err)
	}
	reports, err := RunCampaignContext(context.Background(), CampaignSpec{
		Scenarios:  []*Scenario{burst, base},
		Replicas:   1,
		Executions: 300,
		Workers:    0,
		Seed:       6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b, p := reports[0].DecisionsPerSec, reports[1].DecisionsPerSec; b <= p*1.2 {
		t.Fatalf("burst workload throughput %.1f/s not above baseline %.1f/s", b, p)
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(New("x", 1), RunConfig{}); err == nil {
		t.Error("invalid scenario accepted by Run")
	}
	s := New("x", 3)
	s.Executions = 0
	if _, err := Run(s, RunConfig{}); err == nil {
		t.Error("zero executions accepted")
	}
	if _, err := RunCampaignContext(context.Background(), CampaignSpec{}); err == nil {
		t.Error("empty campaign accepted")
	}
	if _, err := RunCampaignContext(context.Background(), CampaignSpec{Scenarios: []*Scenario{New("x", 3)}, Replicas: -1}); err == nil {
		t.Error("negative replicas accepted")
	}
	if _, err := RunCampaignContext(context.Background(), CampaignSpec{Scenarios: []*Scenario{New("x", 3)}, Executions: -5}); err == nil {
		t.Error("negative execution override accepted")
	}
	if _, err := RunCampaignContext(context.Background(), CampaignSpec{Scenarios: []*Scenario{New("x", 3), nil}}); err == nil {
		t.Error("nil scenario accepted")
	}
	// The errors must be descriptive, not silent empty reports.
	_, err := RunCampaignContext(context.Background(), CampaignSpec{})
	if err == nil || !strings.Contains(err.Error(), "no scenarios") {
		t.Errorf("empty-campaign error not descriptive: %v", err)
	}
}

// TestCampaignCancellation pins the cooperative-cancellation contract: a
// canceled campaign stops between grid units — and, inside a replica,
// between consensus executions — and returns ctx.Err().
func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCampaignContext(ctx, CampaignSpec{
		Scenarios: []*Scenario{New("x", 3).WithExecutions(10)},
		Replicas:  8,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Mid-replica: one long serial replica whose context reports
	// cancellation from its 4th poll on. The worker pool polls once before
	// the unit, so the cancellation can only land at an execution boundary
	// inside the replica, after the first executions have closed.
	before := obs.Executions.Value()
	_, err = RunCampaignContext(&cancelAfterPolls{Context: context.Background(), polls: 3}, CampaignSpec{
		Scenarios: []*Scenario{New("long", 3).WithExecutions(100000)},
		Workers:   1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-replica cancel: err = %v, want context.Canceled", err)
	}
	if ran := obs.Executions.Value() - before; ran < 1 || ran >= 100000 {
		t.Fatalf("mid-replica cancel: %d executions closed, want a few", ran)
	}
}

// cancelAfterPolls is a context whose Err reports cancellation after the
// first `polls` calls: a deterministic, single-goroutine stand-in for a
// cancel arriving mid-run.
type cancelAfterPolls struct {
	context.Context
	polls int
}

func (c *cancelAfterPolls) Err() error {
	if c.polls > 0 {
		c.polls--
		return nil
	}
	return context.Canceled
}

// benchCampaign runs an 8-replica gc-storm campaign at the given worker
// count (the parallel and serial schedules are bit-identical, so the
// variants differ only in wall clock).
func benchCampaign(b *testing.B, workers int) {
	s, err := Get("gc-storm")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := RunCampaignContext(context.Background(), CampaignSpec{
			Scenarios: []*Scenario{s}, Replicas: 8, Executions: 150,
			Workers: workers, Seed: uint64(i) + 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScenarioCampaignSerial(b *testing.B)   { benchCampaign(b, 1) }
func BenchmarkScenarioCampaignParallel(b *testing.B) { benchCampaign(b, 0) }

// compile resolves drawn instants and schedules every event of s against
// c under the base gap a replica would run with, returning a freshly
// allocated timeline (the runner uses compileInto with a retained
// program).
func (s *Scenario) compile(c *netsim.Cluster, r *rng.Stream) (*Timeline, error) {
	_, plan, err := check(s, RunConfig{})
	if err != nil {
		return nil, err
	}
	var p program
	if err := s.compileInto(&p, c, r, plan.Gap); err != nil {
		return nil, err
	}
	return &p.tl, nil
}
