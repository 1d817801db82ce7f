package ctsan

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"ctsan/campaign"
	"ctsan/internal/checkpoint"
	"ctsan/internal/des"
	"ctsan/internal/dist"
	"ctsan/internal/experiment"
	"ctsan/internal/metrics"
	"ctsan/internal/neko"
	"ctsan/internal/netsim"
	"ctsan/internal/obs"
	"ctsan/internal/rng"
	"ctsan/internal/san"
	"ctsan/internal/sanmodel"
	"ctsan/internal/scenario"
	"ctsan/internal/server"
	"ctsan/internal/shard"
	"ctsan/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/costs.golden with the current costs")

// costsGolden is the cost table: one row per line, "name value", or
// "name value ± tolerance" for an allocation count of a whole study.
const costsGolden = "testdata/costs.golden"

// costsHeader opens the golden file; -update writes it back verbatim.
const costsHeader = `# What each rung of the stack costs on fixed small workloads, from the
# event kernel to a fleet lease (costs_test.go). Counts of events,
# firings, decisions, trace events, records and bytes are exact on every
# GOARCH and under -race. Allocation rows (".allocs") are checked on
# amd64 without -race only: the race detector and 32-bit words allocate
# differently. Per-operation and per-execution allocation rows are
# exact; a whole-study row carries "± n", the spread of 20 runs plus
# one. A change that moves a row shows it in its diff.
# Regenerate on amd64 with: go test -run TestCosts -update .
`

// A cost is one measured row of the table.
type cost struct {
	name, value string
	// tol, for a whole-study allocation row, is how far a run may read
	// from value. -update takes value and tol from 20 calls of measure:
	// the middle of their range, and the range plus one.
	tol     float64
	measure func() float64
}

// raceBuild is set by costs_race_test.go under the race detector.
var raceBuild bool

// allocRows reports whether this build reads allocation counts the golden
// file holds: amd64, without the race detector.
func allocRows() bool { return runtime.GOARCH == "amd64" && !raceBuild }

// TestCosts holds every rung of the stack to its cost in
// testdata/costs.golden. The workloads are small and fixed, so the counts
// do not depend on the machine: a row that moves is a change in what the
// code does, not in how fast the host is. Time is gated separately, as a
// same-host comparison (scripts/bench_ab.sh).
func TestCosts(t *testing.T) {
	if *update && !allocRows() {
		t.Fatal("-update needs amd64 without -race: the allocation rows are cut there")
	}
	var rows []cost
	rows = append(rows, desCosts()...)
	rows = append(rows, sanCosts(t)...)
	rows = append(rows, netsimCosts(t)...)
	rows = append(rows, metricsCosts()...)
	rows = append(rows, emulationCosts(t)...)
	rows = append(rows, scenarioCosts(t)...)
	rows = append(rows, campaignCosts(t)...)
	rows = append(rows, recordCosts(t)...)
	rows = append(rows, fleetCosts(t)...)

	if *update {
		var b strings.Builder
		b.WriteString(costsHeader)
		for _, r := range rows {
			if r.measure != nil {
				lo, hi := span(r.measure)
				r.value = strconv.FormatFloat(math.Round((lo+hi)/2), 'f', -1, 64)
				r.tol = hi - lo + 1
			}
			fmt.Fprintf(&b, "%s %s", r.name, r.value)
			if r.measure != nil {
				fmt.Fprintf(&b, " ± %g", r.tol)
			}
			b.WriteByte('\n')
		}
		if err := checkpoint.WriteFile(costsGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readCosts(t)
	measured := map[string]bool{}
	for _, r := range rows {
		measured[r.name] = true
		w, ok := want[r.name]
		switch {
		case !ok:
			t.Errorf("%s = %s is not in %s: regenerate it with -update and say in CHANGES.md what the row measures", r.name, r.value, costsGolden)
		case w.tol > 0:
			got, _ := strconv.ParseFloat(r.value, 64)
			if ref, _ := strconv.ParseFloat(w.value, 64); math.Abs(got-ref) > w.tol {
				t.Errorf("%s = %s, want %s ± %g", r.name, r.value, w.value, w.tol)
			}
		case r.value != w.value:
			t.Errorf("%s = %s, want %s", r.name, r.value, w.value)
		}
	}
	for name := range want {
		if !measured[name] && (allocRows() || !strings.Contains(name, ".allocs")) {
			t.Errorf("%s is in %s but nothing measures it: regenerate the file with -update", name, costsGolden)
		}
	}
}

// readCosts parses the golden file into rows keyed by name.
func readCosts(t *testing.T) map[string]cost {
	t.Helper()
	data, err := os.ReadFile(costsGolden)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]cost{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		r := cost{name: f[0]}
		switch {
		case len(f) == 2:
			r.value = f[1]
		case len(f) == 4 && f[2] == "±":
			r.value = f[1]
			if r.tol, err = strconv.ParseFloat(f[3], 64); err != nil {
				t.Fatalf("%s: %q: %v", costsGolden, line, err)
			}
		default:
			t.Fatalf("%s: %q is neither \"name value\" nor \"name value ± tolerance\"", costsGolden, line)
		}
		rows[r.name] = r
	}
	return rows
}

// span is the least and the greatest of 20 runs of measure.
func span(measure func() float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < 20; i++ {
		v := measure()
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// exact is a row whose value is the same on every run.
func exact(name string, v float64) cost {
	return cost{name: name, value: strconv.FormatFloat(v, 'f', -1, 64)}
}

// allocs is an exact allocation row: the allocations of one call of f,
// the mean of runs calls after a warm-up call. It is measured on amd64
// without -race only.
func allocs(name string, runs int, f func()) []cost {
	if !allocRows() {
		return nil
	}
	f()
	return []cost{exact(name, meanAllocs(runs, f))}
}

// studyAllocs is the allocation row of a whole study: the allocations of
// a run of f, averaged over runs runs, within a tolerance the golden file
// carries. Go's maps place keys by a hash seeded per map, so code that
// fills maps allocates a few objects more or less from run to run. The
// first measurement in a process read two or three more than the ones
// after it, so one is taken and dropped.
func studyAllocs(name string, runs int, f func()) []cost {
	if !allocRows() {
		return nil
	}
	measure := func() float64 { return meanAllocs(runs, f) }
	measure()
	return []cost{{name: name, value: strconv.FormatFloat(measure(), 'f', -1, 64), measure: measure}}
}

// meanAllocs is the allocations of runs calls of f over runs, rounded.
func meanAllocs(runs int, f func()) float64 {
	return math.Round(mallocs(func() {
		for i := 0; i < runs; i++ {
			f()
		}
	}) / float64(runs))
}

// mallocs counts the heap allocations of one call of f, on one P as
// testing.AllocsPerRun counts them, with the collector held off: a
// collection mid-run empties the sync.Pools that encoding/json and the
// runtime keep, and the refills would count.
func mallocs(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.Gosched() // finalizers the collection queued run now, not in f
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// desCosts: the event kernel's three cycles on a standing queue.
func desCosts() []cost {
	fn := func() {}
	var s, pile des.Sim
	for i := 0; i < 256; i++ {
		s.After(float64(i)+1e6, fn)
		pile.At(1, fn)
	}
	var rows []cost
	rows = append(rows, allocs("des.allocs_per_schedule_fire", 1000, func() { s.After(1, fn); s.Step() })...)
	rows = append(rows, allocs("des.allocs_per_schedule_cancel", 1000, func() { s.Cancel(s.After(1, fn)) })...)
	rows = append(rows, allocs("des.allocs_per_equal_time_pile", 1000, func() { pile.At(1, fn); pile.Step() })...)
	return rows
}

// sanCosts: Reset+Run of the consensus net, its firings per replica,
// a fresh NewSim, Reset+Run of a toy net, and one completion beside 8
// and 512 idle seizers.
func sanCosts(t *testing.T) []cost {
	c3 := sanmodel.DefaultParams(5)
	c3.FD = sanmodel.FDModel{TMR: 30, TM: 2, Kind: sanmodel.FDDeterministic}
	var rows []cost
	for _, c := range []struct {
		name string
		p    sanmodel.Params
	}{
		{"c1_n5", sanmodel.DefaultParams(5)},
		{"c1_n7", sanmodel.DefaultParams(7)},
		{"c3_n5", c3},
	} {
		model, err := sanmodel.Build(c.p)
		if err != nil {
			t.Fatal(err)
		}
		root, child := rng.New(1), rng.New(1)
		sim := san.NewSim(model.SAN, child)
		replica := uint64(0)
		run := func() {
			root.ChildInto(child, replica)
			replica++
			sim.Reset(child)
			if _, stopped := sim.Run(1e7, model.Done); !stopped {
				t.Fatalf("%s: replica %d did not decide", c.name, replica-1)
			}
		}
		const replicas = 100
		fired := uint64(0)
		for replica < replicas {
			run()
			fired += sim.Fired()
		}
		rows = append(rows, exact("san.fired_per_replica."+c.name, float64(fired)/replicas))
		rows = append(rows, allocs("san.allocs_per_replica."+c.name, 100, run)...)
	}

	model, err := sanmodel.Build(sanmodel.DefaultParams(5))
	if err != nil {
		t.Fatal(err)
	}
	rows = append(rows, allocs("san.allocs_per_new_sim.c1_n5", 20, func() {
		san.NewSim(model.SAN, rng.New(1)).Run(1e6, model.Done)
	})...)

	toy, done := branchingNet()
	stop := func(mk *san.Marking) bool { return mk.Get(done) >= 1 }
	root, child := rng.New(1), rng.New(1)
	sim, replica := san.NewSim(toy, child), uint64(0)
	rows = append(rows, allocs("san.allocs_per_replica.toy", 200, func() {
		root.ChildInto(child, replica)
		replica++
		sim.Reset(child)
		sim.Run(1e6, stop)
	})...)

	for _, idle := range []int{8, 512} {
		s := san.NewSim(fanoutNet(idle), rng.New(1))
		fire := func() {
			target := s.Fired() + 1
			s.Run(1e18, func(*san.Marking) bool { return s.Fired() >= target })
		}
		for i := 0; i < 100; i++ {
			fire() // past the first settle, buffers grown
		}
		rows = append(rows, allocs(fmt.Sprintf("san.allocs_per_firing.idle%d", idle), 1000, fire)...)
	}
	return rows
}

// branchingNet is a small queue with a probabilistic case: three
// arrivals seize one server, and each service ends done or lost.
func branchingNet() (*san.Model, *san.Place) {
	m := san.NewModel("branching")
	src := m.Place("src", 3)
	q := m.Place("q", 0)
	srv := m.Place("server", 1)
	busy := m.Place("busy", 0)
	done := m.Place("done", 0)
	lost := m.Place("lost", 0)
	m.Timed("arrive", san.Fixed(dist.Exp(0.7))).Input(src).Output(q)
	m.Instant("seize", 1).Input(q, srv).FIFO(q).Output(busy)
	serve := m.Timed("serve", san.Fixed(dist.U(0.5, 1.5))).Input(busy)
	serve.Case(0.8).Output(srv, done)
	serve.Case(0.2).Output(srv, lost)
	return m, done
}

// fanoutNet is one resource shared by a busy seize/serve pipeline, whose
// token cycles forever, and by idle pipelines whose queues stay empty.
func fanoutNet(idle int) *san.Model {
	m := san.NewModel(fmt.Sprintf("fanout-%d", idle))
	resource := m.Place("resource", 1)
	stage := func(name string, tokens int) (*san.Place, *san.Activity) {
		q := m.Place(name+".q", tokens)
		busy := m.Place(name+".busy", 0)
		m.Instant(name+".seize", 1).Input(q, resource).FIFO(q).Output(busy)
		return q, m.Timed(name+".serve", san.Fixed(dist.Det(1))).Input(busy).Output(resource)
	}
	for i := 0; i < idle; i++ {
		stage(fmt.Sprintf("idle%d", i), 0)
	}
	q, serve := stage("busy", 1)
	serve.Output(q)
	return m
}

// netsimCosts: a replica body of broadcasts and pongs on a 3-host
// cluster, rewound per replica and constructed per replica.
func netsimCosts(t *testing.T) []cost {
	probe := neko.Message{Payload: neko.Payload{Kind: neko.PayloadProbe}}
	attach := func(c *netsim.Cluster) {
		for id := neko.ProcessID(1); id <= 3; id++ {
			ctx := c.Context(id)
			s := neko.NewStack(ctx)
			s.Handle(neko.PayloadProbe, func(m *neko.Message) { ctx.Send(neko.Message{To: m.From}) })
			c.Attach(id, s)
		}
	}
	workload := func(c *netsim.Cluster) {
		ctx := c.Context(1)
		c.StartAt(1, 0, func() {
			for k := 0; k < 5; k++ {
				neko.Broadcast(ctx, probe)
			}
		})
		c.RunUntil(50)
	}
	c, err := netsim.New(netsim.Params{N: 3}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	attach(c)
	seed := uint64(0)
	var rows []cost
	rows = append(rows, allocs("netsim.allocs_per_cluster_reset", 100, func() {
		seed++
		c.Reset(rng.New(seed))
		c.Start()
		workload(c)
	})...)
	rows = append(rows, allocs("netsim.allocs_per_cluster_new", 100, func() {
		seed++
		c, err := netsim.New(netsim.Params{N: 3}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		attach(c)
		c.Start()
		workload(c)
	})...)
	return rows
}

// metricsCosts: a campaign's latency results folded into a streaming
// digest, and the slice-and-sort path it replaced, at 10k and 100k
// executions: both past metrics.DefaultExactCap, so the digest is a
// sketch.
func metricsCosts() []cost {
	digest := func(n int) func() {
		return func() {
			r := rng.New(1)
			var d metrics.Digest
			for j := 0; j < n; j++ {
				d.Add(r.Exp(1))
			}
			d.Quantile(0.5)
		}
	}
	slice := func(n int) func() {
		return func() {
			r := rng.New(1)
			var samples []float64
			for j := 0; j < n; j++ {
				samples = append(samples, r.Exp(1))
			}
			sorted := append([]float64(nil), samples...)
			sort.Float64s(sorted)
			stats.QuantileSorted(sorted, 0.5)
		}
	}
	var rows []cost
	rows = append(rows, allocs("metrics.allocs_per_campaign.digest_10k", 5, digest(10_000))...)
	rows = append(rows, allocs("metrics.allocs_per_campaign.slice_10k", 5, slice(10_000))...)
	rows = append(rows, studyAllocs("metrics.allocs_per_campaign.digest_100k", 1, digest(100_000))...)
	rows = append(rows, studyAllocs("metrics.allocs_per_campaign.slice_100k", 1, slice(100_000))...)
	return rows
}

// emulationCosts: DES events and allocations per consensus execution of
// an n = 5 cluster under the oracle detector (class 1) and under
// heartbeats with T = 10 ms (class 3), on a warm harness. Allocations
// per execution are the difference between a run of 2k executions and
// a run of k, over k.
func emulationCosts(t *testing.T) []cost {
	var rows []cost
	for _, c := range []struct {
		name string
		spec experiment.LatencySpec
	}{
		{"class1_n5", experiment.LatencySpec{N: 5, Executions: 100, Seed: 1}},
		{"class3_n5_T10", experiment.LatencySpec{N: 5, Executions: 20, Seed: 1, FDMode: experiment.FDHeartbeat, TimeoutT: 10}},
	} {
		var hs experiment.Harnesses
		run := func(execs int) *experiment.LatencyResult {
			spec := c.spec
			spec.Executions = execs
			res, err := hs.RunLatency(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		k := c.spec.Executions
		res := run(k)
		rows = append(rows, exact("experiment.events_per_exec."+c.name, float64(res.Events)/float64(k)))
		if c.spec.FDMode == experiment.FDHeartbeat {
			rows = append(rows, timerCosts(func(m string) string { return "experiment." + m + "_per_exec." + c.name }, res.Timers, float64(k))...)
		}
		if allocRows() {
			run(2 * k)
			one, two := mallocs(func() { run(k) }), mallocs(func() { run(2 * k) })
			rows = append(rows, exact("experiment.allocs_per_exec."+c.name, (two-one)/float64(k)))
		}
	}
	return rows
}

// timerCosts are the rows of what a workload's emulator timers cost,
// each over per: arms, scheduler latenesses drawn, wake-ups, and the
// event-queue inserts plus removes made for timers. name makes a row's
// name from its metric.
func timerCosts(name func(metric string) string, tc netsim.TimerCounts, per float64) []cost {
	return []cost{
		exact(name("timer_arms"), float64(tc.Arms)/per),
		exact(name("lateness_draws"), float64(tc.Draws)/per),
		exact(name("timer_wakeups"), float64(tc.Wakeups)/per),
		exact(name("timer_queue_ops"), float64(tc.QueueOps)/per),
	}
}

// scenarioCosts: the gc-storm campaign of 8 replicas × 150 executions on
// one worker, untraced and traced.
func scenarioCosts(t *testing.T) []cost {
	s, err := scenario.Get("gc-storm")
	if err != nil {
		t.Fatal(err)
	}
	untraced := func() []*scenario.Report {
		reps, err := scenario.RunCampaignContext(context.Background(), scenario.CampaignSpec{
			Scenarios: []*scenario.Scenario{s}, Replicas: 8, Executions: 150, Workers: 1, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return reps
	}
	traced := func() []*scenario.TracedReplica {
		reps, err := scenario.RunTraced(context.Background(), scenario.TraceSpec{
			Scenario: s, Replicas: 8, Executions: 150, Workers: 1, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return reps
	}
	events := 0
	for _, r := range traced() {
		events += len(r.Result.Trace.Events) + int(r.Result.Trace.Dropped)
	}
	rep := untraced()[0]
	rows := []cost{
		exact("scenario.decided.gc_storm", float64(rep.Decided)),
		exact("scenario.trace_events.gc_storm", float64(events)),
	}
	rows = append(rows, timerCosts(func(m string) string { return "scenario." + m + ".gc_storm" }, rep.Timers, 1)...)
	rows = append(rows, studyAllocs("scenario.allocs_per_campaign.gc_storm", 1, func() { untraced() })...)
	rows = append(rows, studyAllocs("scenario.allocs_per_campaign.gc_storm_traced", 1, func() { traced() })...)
	return rows
}

// fineGrid is the benchmark's fine-grid study: points tiny points cycling
// SAN / Emulation / Scenario over n = 3, 5, 7 — six distinct engine
// assemblies.
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

// campaignCosts: studies through campaign.Run on one worker — the small
// SAN study, the san-grid and emu-grid studies at a hundredth of their
// size, and the 750-point fine grid — with the DES events of each; and
// decoding and freezing the fine grid's spec. The engine assemblies a
// study builds are counted exactly by the campaign package's own tests
// (TestFineGridBuildsSixAssemblies, TestSecondSameShapePointAllocs).
func campaignCosts(t *testing.T) []cost {
	const big, small = 31250 / 100, 12500 / 100
	studies := []struct {
		name  string
		study *campaign.Study
	}{
		{"san_study", campaign.NewStudy("bench-san",
			campaign.SANPoint{N: 3, Replicas: 40},
			campaign.SANPoint{N: 5, Replicas: 40},
		)},
		{"san_grid_100th", campaign.NewStudy("san-grid",
			campaign.SANPoint{Name: "c1-n3", N: 3, Replicas: 7500 / 100},
			campaign.SANPoint{Name: "c1-n5", N: 5, Replicas: 7500 / 100},
			campaign.SANPoint{Name: "c1-n7", N: 7, Replicas: 7500 / 100},
			campaign.SANPoint{Name: "c2-n5", N: 5, Replicas: 7500 / 100, Crashed: []int{1}},
			campaign.SANPoint{Name: "c3-n3", N: 3, Replicas: 3750 / 100, TMR: 30, TM: 2},
			campaign.SANPoint{Name: "c3-n5", N: 5, Replicas: 3750 / 100, TMR: 30, TM: 2},
		)},
		{"emu_grid_100th", campaign.NewStudy("emu-grid",
			campaign.LatencyPoint{Name: "c1-n3", N: 3, Executions: big},
			campaign.LatencyPoint{Name: "c1-n5", N: 5, Executions: big},
			campaign.LatencyPoint{Name: "c1-n7", N: 7, Executions: big},
			campaign.LatencyPoint{Name: "c2-n5", N: 5, Executions: big, Crashed: []int{1}},
			campaign.LatencyPoint{Name: "c3-n3-T10", N: 3, Executions: small, TimeoutT: 10},
			campaign.LatencyPoint{Name: "c3-n5-T10", N: 5, Executions: small, TimeoutT: 10},
		)},
		{"fine_grid", fineGrid(750)},
	}
	var rows []cost
	for _, s := range studies {
		run := func() []*campaign.Result {
			results, err := campaign.RunCollect(context.Background(), s.study, campaign.WithSeed(1), campaign.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			return results
		}
		var events uint64
		for _, r := range run() {
			events += r.Events
		}
		if events > 0 { // SAN points report no DES events
			rows = append(rows, exact("campaign.des_events."+s.name, float64(events)))
		}
		rows = append(rows, studyAllocs("campaign.allocs_per_study."+s.name, 1, func() { run() })...)
	}

	spec, err := campaign.EncodeStudy(fineGrid(750))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := campaign.DecodeStudy(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Frozen(decoded, campaign.WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	rows = append(rows, studyAllocs("campaign.allocs_per_decode.fine_grid", 10, func() {
		if _, err := campaign.DecodeStudy(spec); err != nil {
			t.Fatal(err)
		}
	})...)
	rows = append(rows, studyAllocs("campaign.allocs_per_freeze.fine_grid", 10, func() {
		if _, err := campaign.Frozen(decoded, campaign.WithSeed(1)); err != nil {
			t.Fatal(err)
		}
	})...)
	return rows
}

// recordCosts: the bytes of the shard records of the fine grid. The
// fsyncs of the record files are held on an injected clock by the
// packages that write them (server.TestCacheFileSyncsOncePerSlice,
// cmd/ctsan.TestShardSyncPolicy).
func recordCosts(t *testing.T) []cost {
	frozen, err := campaign.Frozen(fineGrid(750), campaign.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := campaign.StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	indices := make([]int, len(frozen.Points))
	for i := range indices {
		indices[i] = i
	}
	bytesOut := 0
	if err := campaign.RunRecords(context.Background(), frozen, hashes, indices, func(_ int, line []byte) error {
		bytesOut += len(line) + 1 // the newline that frames it in a shard file or upload
		return nil
	}, campaign.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	return []cost{
		exact("records.bytes_per_point.fine_grid", float64(bytesOut)/float64(len(indices))),
		exact("records.syncs.slice_schedule", sliceSyncs(t)),
	}
}

// sliceSyncs is the fsyncs of the sync-per-slice policy on a fixed
// clock: a fresh store begins its first slice, takes eight records
// 0, 5, 5, 14, 1, 30, 0 and 24 ms apart, each followed by
// checkpoint.Store.SyncPerSlice, and is closed with a Sync. The slices
// end at the fifth and sixth records, and the close syncs the last two.
func sliceSyncs(t *testing.T) float64 {
	store, err := checkpoint.Open(filepath.Join(t.TempDir(), "slices.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	at := time.Unix(1_000_000, 0)
	before := obs.CheckpointSyncs.Value()
	if err := store.SyncPerSlice(at); err != nil {
		t.Fatal(err)
	}
	for i, step := range []time.Duration{0, 5, 5, 14, 1, 30, 0, 24} {
		at = at.Add(step * time.Millisecond)
		if err := store.Write([]byte(fmt.Sprintf(`{"record":%d}`, i))); err != nil {
			t.Fatal(err)
		}
		if err := store.SyncPerSlice(at); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	return float64(obs.CheckpointSyncs.Value() - before)
}

// fleetCosts: one lease round trip against ctsand's handler: a worker
// fetches the grid, leases its first range (the one-point probe), runs
// it and uploads the records.
func fleetCosts(t *testing.T) []cost {
	srv := server.New(server.Config{Workers: 1, MaxActive: 1, CacheBytes: -1})
	hs := httptest.NewServer(srv.HTTPServer().Handler)
	defer hs.Close()
	defer func() {
		// The study has points no worker will lease: cancel it.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		srv.Shutdown(ctx) //nolint:errcheck // canceling the study is the point
	}()
	st := submit(t, hs.URL, fineGrid(12), "mode=fleet")
	var spec json.RawMessage
	getJSON(t, hs.URL+"/api/v1/studies/"+st.ID+"/spec", &spec)
	study, err := campaign.DecodeStudy(spec)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := campaign.Frozen(study, campaign.WithSeed(st.Seed), campaign.WithReplicas(st.Replicas))
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := campaign.StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	var grant shard.LeaseResponse
	for grant.Lease == "" {
		post(t, fmt.Sprintf("%s/api/v1/studies/%s/lease?worker=costs&epoch=%d", hs.URL, st.ID, campaign.Epoch), nil, &grant)
		if grant.Done {
			t.Fatal("the fleet study finished before its first lease")
		}
		if grant.Lease == "" {
			time.Sleep(time.Millisecond)
		}
	}
	var body []byte
	indices := make([]int, 0, grant.End-grant.Start)
	for i := grant.Start; i < grant.End; i++ {
		indices = append(indices, i)
	}
	if err := campaign.RunRecords(context.Background(), frozen, hashes, indices, func(_ int, line []byte) error {
		body = append(append(body, line...), '\n')
		return nil
	}, campaign.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	var done shard.CompleteReply
	post(t, fmt.Sprintf("%s/api/v1/studies/%s/lease/%s/complete", hs.URL, st.ID, grant.Lease), body, &done)
	return []cost{
		exact("fleet.points_per_first_lease", float64(len(indices))),
		exact("fleet.records_accepted", float64(done.Accepted)),
		exact("fleet.upload_bytes_per_point", float64(len(body))/float64(len(indices))),
	}
}

// submit posts study to the service at base with the query q and returns
// its status.
func submit(t *testing.T, base string, study *campaign.Study, q string) server.Status {
	t.Helper()
	spec, err := campaign.EncodeStudy(study)
	if err != nil {
		t.Fatal(err)
	}
	var st server.Status
	post(t, base+"/api/v1/studies?"+q, spec, &st)
	return st
}

func post(t *testing.T, url string, body []byte, out any) {
	t.Helper()
	res, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	decodeReply(t, res, out)
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	decodeReply(t, res, out)
}

func decodeReply(t *testing.T, res *http.Response, out any) {
	t.Helper()
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK && res.StatusCode != http.StatusAccepted {
		t.Fatalf("%s %s: %s", res.Request.Method, res.Request.URL.Path, res.Status)
	}
	if err := json.NewDecoder(res.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
