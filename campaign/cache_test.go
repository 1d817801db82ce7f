package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ctsan/internal/experiment"
	"ctsan/internal/sanmodel"
	"ctsan/internal/scenario"
)

// mapCache is the simplest conforming PointCache: encoded shard-record
// bytes in a map, decoded fresh per Get — the same storage scheme the
// server's LRU uses, minus bounds and eviction.
type mapCache struct {
	mu      sync.Mutex
	entries map[string][]byte
	gets    []string
	hits    int
	puts    []int // emitted indices, in Put order
}

func newMapCache() *mapCache { return &mapCache{entries: map[string][]byte{}} }

func (c *mapCache) Get(hash string) (*Result, bool) {
	c.mu.Lock()
	line, ok := c.entries[hash]
	c.gets = append(c.gets, hash)
	if ok {
		c.hits++
	}
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	rec, err := DecodeShardRecord(line)
	if err != nil {
		return nil, false
	}
	res, err := rec.DecodeResult()
	if err != nil {
		return nil, false
	}
	return res, true
}

func (c *mapCache) Put(hash string, res *Result) {
	line, err := EncodeShardRecord(hash, res)
	if err != nil {
		return
	}
	c.mu.Lock()
	c.entries[hash] = line
	c.puts = append(c.puts, res.Index)
	c.mu.Unlock()
}

func TestFrozenPointsMatchesManualDerivation(t *testing.T) {
	study := shardTestStudy()
	opts := []Option{WithSeed(11), WithReplicas(30)}
	fps, err := study.FrozenPoints(opts...)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := Frozen(study, opts...)
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != len(frozen.Points) {
		t.Fatalf("enumerated %d points, study has %d", len(fps), len(frozen.Points))
	}
	for i, fp := range fps {
		if fp.Index != i {
			t.Errorf("point %d: index %d", i, fp.Index)
		}
		if fp.Hash != hashes[i] {
			t.Errorf("point %d: hash %s, manual derivation %s", i, fp.Hash, hashes[i])
		}
		if want := label(frozen.Points[i], i); fp.Label != want {
			t.Errorf("point %d: label %q, want %q", i, fp.Label, want)
		}
		if fp.Engine != frozen.Points[i].Engine() {
			t.Errorf("point %d: engine %v", i, fp.Engine)
		}
		if fp.Seed == 0 {
			t.Errorf("point %d: seed not materialized", i)
		}
		if fp.Replicas < 1 {
			t.Errorf("point %d: replicas not materialized (%d)", i, fp.Replicas)
		}
		// The frozen point must hash to the reported hash (it is the
		// very value cache keys and shard records are built from).
		if h, _ := PointHash(fp.Point); h != fp.Hash {
			t.Errorf("point %d: Point hashes to %s, reported %s", i, h, fp.Hash)
		}
	}
	// Enumeration under different options must produce different seeds,
	// hence different hashes: the cache key covers the materialization.
	other, err := study.FrozenPoints(WithSeed(12), WithReplicas(30))
	if err != nil {
		t.Fatal(err)
	}
	if other[0].Hash == fps[0].Hash {
		t.Error("different study seeds produced the same point hash")
	}
}

// TestPointCacheWarmRunByteIdentical is the cache contract end to end:
// a warm rerun of the same study serves every point from the cache and
// emits byte-identical JSONL.
func TestPointCacheWarmRunByteIdentical(t *testing.T) {
	study := shardTestStudy()
	cache := newMapCache()
	opts := []Option{WithSeed(7), WithWorkers(2), WithPointCache(cache)}

	cold := resultLines(t, study, opts...)
	if cache.hits != 0 {
		t.Fatalf("cold run hit the cache %d times", cache.hits)
	}
	if len(cache.entries) != len(study.Points) {
		t.Fatalf("cold run cached %d of %d points", len(cache.entries), len(study.Points))
	}

	warm := resultLines(t, study, opts...)
	if cache.hits != len(study.Points) {
		t.Fatalf("warm run hit %d of %d points", cache.hits, len(study.Points))
	}
	for i := range cold {
		if !bytes.Equal(cold[i], warm[i]) {
			t.Fatalf("point %d: warm result diverged\ncold: %s\nwarm: %s", i, cold[i], warm[i])
		}
	}

	// An uncached reference run must agree too: serving from cache can
	// change no bit relative to plain execution.
	ref := resultLines(t, study, WithSeed(7), WithWorkers(2))
	for i := range ref {
		if !bytes.Equal(ref[i], cold[i]) {
			t.Fatalf("point %d: cached run diverged from uncached reference", i)
		}
	}
}

// TestPointCacheRewritesIdentity: the same frozen point appearing in a
// differently-named study at a different grid index (same name and
// pinned seed → same content hash, since the point hash covers only the
// frozen point spec, not the study around it) is served from cache with
// the hitting study's identity fields, leaving the statistics untouched.
func TestPointCacheRewritesIdentity(t *testing.T) {
	cache := newMapCache()
	shared := SANPoint{Name: "shared", N: 3, Replicas: 40, Seed: 99}
	a := NewStudy("study-a", shared)
	b := NewStudy("study-b", SANPoint{N: 4, Replicas: 20}, shared)

	ra, err := RunCollect(context.Background(), a, WithWorkers(1), WithPointCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunCollect(context.Background(), b, WithWorkers(1), WithPointCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if cache.hits != 1 {
		t.Fatalf("expected the shared point to hit, got %d hits", cache.hits)
	}
	if rb[1].Study != "study-b" || rb[1].Point != "shared" || rb[1].Index != 1 {
		t.Fatalf("cached result kept stale identity: %+v", rb[1])
	}
	if ra[0].Latency != rb[1].Latency || ra[0].Replicas != rb[1].Replicas {
		t.Fatal("cached result changed the statistics")
	}
	if got, want := rb[1].Quantile(0.5), ra[0].Quantile(0.5); got != want {
		t.Fatalf("cached digest quantile %g, want %g", got, want)
	}
}

// sentinelCache proves a hit really skips the engine: it serves a
// pre-built result for every Get, so if the emitted result carries the
// sentinel's statistics the point cannot have executed.
type sentinelCache struct {
	line []byte
	puts int
}

func (c *sentinelCache) Get(string) (*Result, bool) {
	rec, err := DecodeShardRecord(c.line)
	if err != nil {
		return nil, false
	}
	res, err := rec.DecodeResult()
	if err != nil {
		return nil, false
	}
	return res, true
}

func (c *sentinelCache) Put(string, *Result) { c.puts++ }

func TestPointCacheHitSkipsExecution(t *testing.T) {
	// Build a sentinel record from a tiny run with a recognizable seed.
	donor := NewStudy("donor", SANPoint{N: 3, Replicas: 10, Seed: 424242})
	results, err := RunCollect(context.Background(), donor, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	fps, err := donor.FrozenPoints()
	if err != nil {
		t.Fatal(err)
	}
	line, err := EncodeShardRecord(fps[0].Hash, results[0])
	if err != nil {
		t.Fatal(err)
	}
	cache := &sentinelCache{line: line}

	// This point would run 5000 replicas at a different seed — if the
	// emitted result shows the sentinel's seed and replica count, the
	// engine never ran.
	study := NewStudy("victim", SANPoint{N: 5, Replicas: 5000, Seed: 1})
	got, err := RunCollect(context.Background(), study, WithWorkers(1), WithPointCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Seed != 424242 || got[0].Replicas != 10 {
		t.Fatalf("cache hit did not skip execution: %+v", got[0])
	}
	if got[0].Study != "victim" {
		t.Fatalf("identity not rewritten: %q", got[0].Study)
	}
	if cache.puts != 0 {
		t.Fatalf("hit path called Put %d times", cache.puts)
	}
}

// failingSink errors on the result at a chosen index and records every
// emission and close, pinning the Sink error contract: the study is
// canceled (no unit after the failing emission starts on the serial
// path), the error surfaces from Run wrapped for errors.Is, no further
// Emit calls arrive, and Close still runs exactly once.
type failingSink struct {
	failAt  int
	err     error
	emitted []int
	closes  int
}

func (s *failingSink) Emit(r *Result) error {
	if r.Index == s.failAt {
		return s.err
	}
	s.emitted = append(s.emitted, r.Index)
	return nil
}

func (s *failingSink) Close() error {
	s.closes++
	return nil
}

func TestSinkErrorCancelsStudy(t *testing.T) {
	sinkErr := errors.New("disk full")
	study := NewStudy("sink-error",
		SANPoint{N: 3, Replicas: 20},
		SANPoint{N: 3, Replicas: 20, TSend: 0.05},
		SANPoint{N: 3, Replicas: 20, TSend: 0.1},
		SANPoint{N: 3, Replicas: 20, TSend: 0.2},
		SANPoint{N: 3, Replicas: 20, TSend: 0.4},
	)
	sink := &failingSink{failAt: 1, err: sinkErr}
	exec := newMapCache() // execution observer: Put records every point that ran

	err := Run(context.Background(), study, WithWorkers(1),
		WithSink(sink), WithPointCache(exec))
	if err == nil {
		t.Fatal("sink error did not surface from Run")
	}
	if !errors.Is(err, sinkErr) {
		t.Fatalf("error %v does not wrap the sink error", err)
	}
	if len(sink.emitted) != 1 || sink.emitted[0] != 0 {
		t.Fatalf("emissions after the failure: %v", sink.emitted)
	}
	if sink.closes != 1 {
		t.Fatalf("Close called %d times", sink.closes)
	}
	// Serial path: the failing emission happens inside unit 1; units 2+
	// must never start once it fails.
	if len(exec.puts) != 2 {
		t.Fatalf("points executed after the sink failure: %v", exec.puts)
	}
}

// TestSinkErrorParallelSurfaces pins the same contract on the pooled
// path: the error surfaces, emissions stop at the failure point, and
// every sink is still closed.
func TestSinkErrorParallelSurfaces(t *testing.T) {
	sinkErr := errors.New("downstream gone")
	study := shardTestStudy()
	sink := &failingSink{failAt: 2, err: sinkErr}
	var collect Collect
	err := Run(context.Background(), study, WithWorkers(4),
		WithSink(sink), WithSink(&collect))
	if !errors.Is(err, sinkErr) {
		t.Fatalf("error %v does not wrap the sink error", err)
	}
	if sink.closes != 1 {
		t.Fatalf("Close called %d times", sink.closes)
	}
	for _, idx := range sink.emitted {
		if idx >= 2 {
			t.Fatalf("emission %d arrived after the failing index", idx)
		}
	}
	// The second sink saw the failing result or earlier ones only; the
	// emission loop dies with the first sink error.
	for _, r := range collect.Results {
		if r.Index > 2 {
			t.Fatalf("second sink received index %d after the failure", r.Index)
		}
	}
}

// countingCache sees every execution of a cached run: a miss is a Get
// that found nothing, followed by a Put once the point has run.
type countingCache struct{ gets, puts int }

func (c *countingCache) Get(string) (*Result, bool) { c.gets++; return nil, false }
func (c *countingCache) Put(string, *Result)        { c.puts++ }

// TestUnrunnablePointFailsBeforeAnyExecution: what only an engine used to
// reject — a crashed id outside 1..n, no correct majority — or used to
// panic on (FD QoS with TM >= TMR, a negative heartbeat period) or to
// turn silently into garbage (negative times, guards and horizons) is
// rejected at freeze, so a bad late point costs no execution of the
// points before it, in Run and in everything that freezes (Frozen,
// FrozenPoints: the sharded and fleet paths).
func TestUnrunnablePointFailsBeforeAnyExecution(t *testing.T) {
	good := SANPoint{N: 3, Replicas: 5}
	for _, tc := range unrunnablePoints {
		study := NewStudy("bad-second", good, tc.bad)
		var cache countingCache
		err := Run(context.Background(), study, WithWorkers(1), WithPointCache(&cache))
		if err == nil || !strings.Contains(err.Error(), "point 1") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Run error %v, want point 1 rejected with %q", tc.bad, err, tc.want)
		}
		if cache.gets != 0 || cache.puts != 0 {
			t.Errorf("%+v: %d lookups and %d executions before the error, want none", tc.bad, cache.gets, cache.puts)
		}
		if _, err := Frozen(study); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Frozen error %v, want %q", tc.bad, err, tc.want)
		}
		if _, err := study.FrozenPoints(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: FrozenPoints error %v, want %q", tc.bad, err, tc.want)
		}
	}
}

// unrunnablePoints are points no engine can run, each with the substring
// of the reason every caller must report.
var unrunnablePoints = []struct {
	bad  Point
	want string
}{
	{SANPoint{N: 3, Crashed: []int{9}}, "crashed process 9 out of range 1..3"},
	{SANPoint{N: 3, Crashed: []int{1, 2}}, "majority-correct"},
	{LatencyPoint{N: 3, Executions: 5, Crashed: []int{0}}, "crashed process 0 out of range 1..3"},
	{LatencyPoint{N: 4, Executions: 5, Crashed: []int{1, 2}}, "majority-correct"},
	{SANPoint{N: 3, TMR: 10, TM: 10}, "0 < TM < TMR"},
	{SANPoint{N: 3, TMR: 10}, "0 < TM < TMR"},
	{SANPoint{N: 3, TMR: 10, TM: 12, FDExponential: true}, "0 < TM < TMR"},
	{SANPoint{N: 3, TMR: -1}, "negative FD QoS"},
	{SANPoint{N: 3, TMR: 10, TM: -2}, "negative FD QoS"},
	{SANPoint{N: 3, TSend: -1}, "negative t_send"},
	{SANPoint{N: 3, Tmax: -1}, "negative horizon"},
	{LatencyPoint{N: 3, Executions: 5, TimeoutT: 10, PeriodTh: -1}, "negative heartbeat period"},
	{LatencyPoint{N: 3, Executions: 5, Gap: -5}, "negative gap"},
	{LatencyPoint{N: 3, Executions: 5, Warmup: -50}, "warmup"},
	{LatencyPoint{N: 3, Executions: 5, Deadline: -5}, "negative execution deadline"},
	{LatencyPoint{N: 3, Executions: 5, MaxRounds: -1}, "negative round guard"},
	{ScenarioPoint{Name: "paper-baseline", Deadline: -5}, "negative execution deadline"},
	{ScenarioPoint{Name: "paper-baseline", MaxRounds: -1}, "negative round guard"},
	{ScenarioPoint{Name: "hb", SpecJSON: []byte(`{"name":"hb","n":3,"timeout_t":10,"period_th":-1}`)}, "negative heartbeat period"},
}

// TestEnginesRejectWhatFreezeRejects: freeze checks a point by asking its
// engine, so each engine, handed the input the point's own builders make
// (the ones freeze uses) without freezing first, must reject every
// unrunnable point with the same reason, and none may panic: the latency
// entry point, sanmodel.SimulateContext, and scenario.Run and
// RunCampaignContext. A timeline the scenario parser itself refuses is
// refused there, with the same reason.
func TestEnginesRejectWhatFreezeRejects(t *testing.T) {
	for _, tc := range unrunnablePoints {
		for i, err := range engineErrors(t, tc.bad) {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%+v: engine call %d returned %v, want %q", tc.bad, i, err, tc.want)
			}
		}
	}
}

// engineErrors hands p's engine input straight to its engine entry
// points and returns what each reports; a panic counts as an error.
func engineErrors(t *testing.T, p Point) []error {
	t.Helper()
	ctx := context.Background()
	call := func(f func() error) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return f()
	}
	switch q := p.(type) {
	case LatencyPoint:
		return []error{call(func() error {
			_, err := experiment.RunLatencyContext(ctx, q.spec())
			return err
		})}
	case SANPoint:
		if q.Replicas == 0 {
			q.Replicas = 5
		}
		return []error{call(func() error {
			params, err := q.params()
			if err != nil {
				return err
			}
			_, err = sanmodel.SimulateContext(ctx, params, q.Replicas, q.horizon(), 1, 1)
			return err
		})}
	case ScenarioPoint:
		s, err := q.scenario()
		if err != nil {
			return []error{err}
		}
		grid := q.grid(s)
		return []error{
			call(func() error {
				_, err := scenario.RunCampaignContext(ctx, grid)
				return err
			}),
			call(func() error {
				_, err := scenario.Run(s, scenario.RunConfig{Executions: grid.Executions, MaxRounds: grid.MaxRounds, Deadline: grid.Deadline})
				return err
			}),
		}
	}
	t.Fatalf("no engine for %T", p)
	return nil
}
