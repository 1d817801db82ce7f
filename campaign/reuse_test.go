package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"
)

// The per-worker keyed sets of engine assemblies (assemblies, run.go) are
// invisible in results by construction: a retained assembly is rewound
// bit-identically to a fresh one. These tests hold that on generated
// grids, at and beyond the sets' capacity, and pin what the sets buy
// (allocations) and what they must not cost (memory after Run).

// setCapacity mirrors internal/keyed's unexported bound.
const setCapacity = 8

// partitionJSON is an inline scenario whose shape (n=5, heartbeat T=30)
// equals the registry's rolling-crash and split-brain and a
// LatencyPoint{N: 5, TimeoutT: 30}: crash, partition and workload-phase
// injections early enough that a few dozen executions run through them.
const partitionJSON = `{"name":"inline-faults","n":5,"timeout_t":30,"events":[
	{"kind":"crash","at":60,"p":2},
	{"kind":"partition","at":120,"groups":[[1,2],[3,4,5]]},
	{"kind":"workload","at":150,"gap":4,"label":"burst"},
	{"kind":"heal","at":260},
	{"kind":"recover","at":300,"p":2},
	{"kind":"link","at":320,"until":500,"from":1,"to":3,"loss":0.2,"extra":{"kind":"exp","mean":1}}]}`

// stormJSON is an inline n=3 heartbeat scenario with a pause storm from
// the first millisecond on.
const stormJSON = `{"name":"inline-storm","n":3,"timeout_t":20,"events":[
	{"kind":"pause-storm","at":30,"until":400,"every":{"kind":"exp","mean":25},"dur":{"kind":"uniform","lo":2,"hi":12}}]}`

// heterogeneousGrid generates a grid over every engine and run class:
// SAN classes 1/2/3 (deterministic and exponential FD sojourns, a crashed
// set), oracle and heartbeat Emulation points, registry and inline-JSON
// scenarios with injections. Every Scenario point with crash, partition
// or phase injections is immediately followed by a Latency point of the
// same harness shape, so at one worker the Latency point runs on the very
// harness the injections just went through.
func heterogeneousGrid(seed uint64, points int) []Point {
	r := rand.New(rand.NewPCG(seed, 0))
	ns := []int{3, 5, 7}
	var grid []Point
	for len(grid) < points {
		n := ns[r.IntN(len(ns))]
		switch r.IntN(9) {
		case 0:
			grid = append(grid, SANPoint{N: n, Replicas: 8 + r.IntN(8)})
		case 1:
			grid = append(grid, SANPoint{N: n, Replicas: 8 + r.IntN(8), Crashed: []int{1 + r.IntN(n)}})
		case 2:
			grid = append(grid, SANPoint{N: n, Replicas: 6 + r.IntN(6), TMR: 30, TM: 2, FDExponential: r.IntN(2) == 0, Tmax: 1e5})
		case 3:
			grid = append(grid, LatencyPoint{N: n, Executions: 10 + r.IntN(20)})
		case 4:
			grid = append(grid, LatencyPoint{N: n, Executions: 10 + r.IntN(20), Crashed: []int{1 + r.IntN(n)}})
		case 5:
			grid = append(grid, LatencyPoint{N: n, Executions: 10 + r.IntN(20), TimeoutT: []float64{10, 20, 30}[r.IntN(3)]})
		case 6:
			// Registry scenarios at n=5, T=30: crash churn from 400 ms,
			// partition from 500 ms — 70 executions reach both.
			name := []string{"rolling-crash", "split-brain"}[r.IntN(2)]
			grid = append(grid,
				ScenarioPoint{Name: name, Replicas: 1 + r.IntN(2), Executions: 70},
				LatencyPoint{N: 5, Executions: 15, TimeoutT: 30})
		case 7:
			grid = append(grid,
				ScenarioPoint{Name: "inline-faults", SpecJSON: []byte(partitionJSON), Replicas: 1 + r.IntN(2), Executions: 40},
				LatencyPoint{N: 5, Executions: 15, TimeoutT: 30})
		case 8:
			// n=3, T=20: workload phases from 400 ms (burst-load), pause
			// storms and link rules from 300 ms (gc-storm, flaky-link), or
			// the inline storm from the start.
			p := ScenarioPoint{Name: "inline-storm", SpecJSON: []byte(stormJSON), Replicas: 2, Executions: 30}
			if k := r.IntN(4); k < 3 {
				p = ScenarioPoint{Name: []string{"burst-load", "gc-storm", "flaky-link"}[k], Replicas: 1, Executions: 60}
			}
			grid = append(grid, p, LatencyPoint{N: 3, Executions: 15, TimeoutT: 20})
		}
	}
	return grid
}

// tinyGrid is the shape of the benchmark's fine grid — SAN, Emulation and
// Scenario points cycling over n = 3, 5, 7 — at a fraction of a
// millisecond per point.
func tinyGrid(points int) *Study {
	s := NewStudy("tiny-grid")
	for i := 0; i < points; i++ {
		n := []int{3, 5, 7}[(i/3)%3]
		switch i % 3 {
		case 0:
			s.Add(SANPoint{Name: fmt.Sprintf("san-%04d", i), N: n, Replicas: 10})
		case 1:
			s.Add(LatencyPoint{Name: fmt.Sprintf("emu-%04d", i), N: n, Executions: 20})
		case 2:
			p := ScenarioPoint{Name: "paper-baseline", Replicas: 1, Executions: 20}
			if n != 3 {
				p.Name = fmt.Sprintf("baseline-n%d", n)
				p.SpecJSON = []byte(fmt.Sprintf(`{"name":%q,"n":%d}`, p.Name, n))
			}
			s.Add(p)
		}
	}
	return s
}

// recordsAlone runs every frozen point alone in a one-point study — a
// fresh Run each, so nothing can be reused — and returns its shard
// record re-identified as point i of the grid.
func recordsAlone(t *testing.T, frozen *Study, hashes []string) [][]byte {
	t.Helper()
	lines := make([][]byte, len(frozen.Points))
	for i, p := range frozen.Points {
		res, err := RunCollect(context.Background(), NewStudy(frozen.Name, p), WithWorkers(1))
		if err != nil {
			t.Fatalf("point %d (%s) alone: %v", i, p.Label(), err)
		}
		res[0].Index = i
		if lines[i], err = EncodeShardRecord(hashes[i], res[0]); err != nil {
			t.Fatal(err)
		}
	}
	return lines
}

// captureOptions is an Option that exposes the resolved options of the
// Run it is passed to — and with them the workers' retained assemblies.
func captureOptions(dst **options) Option { return func(o *options) { *dst = o } }

// retained reports the largest number of assemblies of one kind any
// pool worker holds.
func retained(o *options) (most int) {
	for w := range o.built.models {
		most = max(most, o.built.models[w].Len(), o.built.harnesses[w].Len())
	}
	return most
}

// checkGridMatchesAlone runs the grid whole at 1, 2, 3 and 8 workers and
// requires every point's shard record to equal, byte for byte, the record
// of that point run alone. At one worker it also checks the retained
// count after every point (the progress callback runs on the only worker,
// between its points).
func checkGridMatchesAlone(t *testing.T, name string, seed uint64, grid []Point) {
	t.Helper()
	frozen, err := Frozen(NewStudy(name, grid...), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	want := recordsAlone(t, frozen, hashes)
	for _, workers := range []int{1, 2, 3, 8} {
		var o *options
		opts := []Option{WithWorkers(workers), captureOptions(&o)}
		if workers == 1 {
			opts = append(opts, WithProgress(func(done, _ int, _ *Result) {
				if n := retained(o); n > setCapacity {
					t.Errorf("%d assemblies of one kind retained after point %d, capacity is %d", n, done-1, setCapacity)
				}
			}))
		}
		results, err := RunCollect(context.Background(), frozen, opts...)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, res := range results {
			if res.Engine == SAN && res.Latency.N+res.Aborted != res.Replicas {
				t.Fatalf("workers=%d point %d (%s): %d samples + %d aborted, %d replicas asked for",
					workers, i, res.Point, res.Latency.N, res.Aborted, res.Replicas)
			}
			got, err := EncodeShardRecord(hashes[i], res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("workers=%d point %d (%s): record differs from the point run alone\n got %s\nwant %s",
					workers, i, res.Point, got, want[i])
			}
		}
		if n := retained(o); n > setCapacity {
			t.Errorf("workers=%d: %d assemblies of one kind retained at the end, capacity is %d", workers, n, setCapacity)
		}
	}
}

// TestReusedAssembliesMatchOnePointStudies is the differential of the
// keyed sets on generated heterogeneous grids — and of the pool's helping
// on the shapes where it happens: fewer points than workers, and a grid
// whose last point is by far its longest, so that replicas of one point
// run on simulators and harnesses of several workers.
func TestReusedAssembliesMatchOnePointStudies(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		checkGridMatchesAlone(t, "reuse", seed, heterogeneousGrid(seed, 40))
	}
	longSAN := SANPoint{N: 5, Replicas: 1200, TMR: 30, TM: 2, Tmax: 1e5}
	longScenario := ScenarioPoint{Name: "inline-faults", SpecJSON: []byte(partitionJSON), Replicas: 6, Executions: 30}
	checkGridMatchesAlone(t, "one-point", 4, []Point{longSAN})
	checkGridMatchesAlone(t, "two-points", 5, []Point{longScenario, longSAN})
	checkGridMatchesAlone(t, "long-san-tail", 6, append(heterogeneousGrid(6, 6), longSAN))
	checkGridMatchesAlone(t, "long-scenario-tail", 7, append(heterogeneousGrid(7, 6), longScenario))
}

// TestIdleWorkerRunsReplicasOfTheLastPoint: two points on two workers,
// the second twenty times the first. The worker whose point ends first
// has none left to start and joins the other's replicas: it ran a SAN
// point only, yet it ends holding the harness the Scenario point runs on
// — a worker assembles one only by running a replica on it. (The SAN
// side of the same fact is san's TestTailStudyRunsOnBothWorkers: which
// simulators a solver built is not visible from here.)
func TestIdleWorkerRunsReplicasOfTheLastPoint(t *testing.T) {
	var o *options
	study := NewStudy("tail",
		SANPoint{N: 3, Replicas: 100},
		ScenarioPoint{Name: "rolling-crash", Replicas: 60, Executions: 80},
	)
	if _, err := RunCollect(context.Background(), study, WithWorkers(2), captureOptions(&o)); err != nil {
		t.Fatal(err)
	}
	for w := range o.built.harnesses {
		if n := o.built.harnesses[w].Len(); n != 1 {
			t.Errorf("worker %d holds %d harnesses after the study, want 1: both workers run replicas of the Scenario point", w, n)
		}
	}
	if a, b := o.built.models[0].Len(), o.built.models[1].Len(); a+b != 1 {
		t.Errorf("workers hold %d and %d SAN models, want one between them", a, b)
	}
}

// TestEvictionKeepsResultsAndBound: twelve distinct shapes per kind —
// more than a set holds — each visited twice in a row and then again
// after all the others, so a worker hits, evicts and rebuilds. Results
// stay those of the points run alone and no set ever exceeds its
// capacity; at one worker both sets end exactly full.
func TestEvictionKeepsResultsAndBound(t *testing.T) {
	const shapes = 12
	var grid []Point
	for i := 0; i < 3*shapes; i++ {
		k := (i / 2) % shapes
		grid = append(grid,
			SANPoint{N: 3, Replicas: 6, TSend: 0.01 + 0.005*float64(k)},
			LatencyPoint{N: 3, Executions: 8, MaxRounds: 100 + k},
		)
		if k%4 == 0 {
			grid = append(grid, ScenarioPoint{Name: "paper-baseline", Executions: 8, MaxRounds: 100 + k})
		}
	}
	checkGridMatchesAlone(t, "evict", 5, grid)

	var o *options
	if _, err := RunCollect(context.Background(), NewStudy("evict", grid...), WithWorkers(1), captureOptions(&o)); err != nil {
		t.Fatal(err)
	}
	if m, h := o.built.models[0].Len(), o.built.harnesses[0].Len(); m != setCapacity || h != setCapacity {
		t.Errorf("after %d shapes per kind the worker retains %d models and %d harnesses, want %d of each", shapes, m, h, setCapacity)
	}
}

// TestFineGridBuildsSixAssemblies: the benchmark's fine grid — SAN,
// Emulation and Scenario points cycling over n = 3, 5, 7 — is nine point
// kinds but six assemblies: one SAN model per n, and one oracle harness
// per n that the Emulation and the Scenario points share.
func TestFineGridBuildsSixAssemblies(t *testing.T) {
	var o *options
	if _, err := RunCollect(context.Background(), tinyGrid(18), WithWorkers(1), captureOptions(&o)); err != nil {
		t.Fatal(err)
	}
	if m, h := o.built.models[0].Len(), o.built.harnesses[0].Len(); m != 3 || h != 3 {
		t.Errorf("fine grid built %d SAN models and %d harnesses on its worker, want 3 and 3", m, h)
	}
}

// allocsOfRun measures the allocations of one serial Run of points.
func allocsOfRun(t *testing.T, points ...Point) float64 {
	t.Helper()
	study := NewStudy("allocs", points...)
	return testing.AllocsPerRun(5, func() {
		if err := Run(context.Background(), study, WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSecondSameShapePointAllocs pins what the keyed sets buy: the second
// point of a shape in a study costs its freeze, its summary and the
// digest it returns — not another model build (8,263 objects for this
// 20-replica n=5 SAN point when every point built its own; 31 now) or
// another cluster assembly (1,024 for this 50-execution n=5 Emulation
// point; 54 now).
func TestSecondSameShapePointAllocs(t *testing.T) {
	san := SANPoint{N: 5, Replicas: 20}
	if second := allocsOfRun(t, san, san) - allocsOfRun(t, san); second > 300 {
		t.Errorf("second same-shape SAN point allocates %.0f objects, want <= 300", second)
	}
	emu := LatencyPoint{N: 5, Executions: 50}
	if second := allocsOfRun(t, emu, emu) - allocsOfRun(t, emu); second > 100 {
		t.Errorf("second same-shape Emulation point allocates %.0f objects, want <= 100", second)
	}
}

// TestNothingOutlivesRun: fifty sequential heterogeneous studies in one
// process — what a daemon slot does — leave the live heap where it was
// after the fifth. The assemblies belong to the Run that built them.
func TestNothingOutlivesRun(t *testing.T) {
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var base uint64
	for i := 1; i <= 50; i++ {
		study := NewStudy("heap", heterogeneousGrid(uint64(i), 12)...)
		if err := Run(context.Background(), study, WithSeed(uint64(i)), WithWorkers(2)); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			base = live()
		}
	}
	if end := live(); end > base+256<<10 {
		t.Errorf("live heap grew from %d B after 5 studies to %d B after 50 (+%d KiB), want within 256 KiB",
			base, end, (end-base)>>10)
	}

	// Nor does a goroutine: not after those fifty runs, and not when a
	// cancel lands while one worker is inside the other's point — point 0
	// is out, its worker has joined the replicas of point 1 (600 ms of
	// them), and the cancel arrives a moment into that.
	goroutines := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		study := NewStudy("cancel-tail",
			SANPoint{N: 3, Replicas: 50},
			SANPoint{N: 7, Replicas: 20000, TMR: 30, TM: 2, Tmax: 1e5},
		)
		err := Run(ctx, study, WithWorkers(2), WithProgress(func(int, int, *Result) {
			time.AfterFunc(time.Duration(i)*500*time.Microsecond, cancel)
		}))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run %d returned %v, want context.Canceled", i, err)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the canceled runs, %d before", runtime.NumGoroutine(), goroutines)
		}
	}
}
