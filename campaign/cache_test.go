package campaign

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"ctsan/internal/experiment"
	"ctsan/internal/obs"
	"ctsan/internal/sanmodel"
	"ctsan/internal/scenario"
)

// executed observes which points of a run executed: the run's
// completed hook, which sees each point the moment it completes.
type executed struct {
	mu      sync.Mutex
	indices []int // in completion order
}

func (e *executed) option() Option {
	return func(o *options) {
		o.completed = func(i int, _ *Result) error {
			e.mu.Lock()
			e.indices = append(e.indices, i)
			e.mu.Unlock()
			return nil
		}
	}
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

// failingEmit runs every point of study through RunRecords with an emit
// that fails on point failAt's record with emitErr — how `ctsan shard`'s
// store.Write and ctsand's settleRecord fail a run. It returns every index
// emit was called with, in call order, and RunRecords' error.
func failingEmit(t *testing.T, study *Study, failAt int, emitErr error, opts ...Option) ([]int, error) {
	t.Helper()
	frozen, err := Frozen(study)
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := StudyPointHashes(frozen)
	if err != nil {
		t.Fatal(err)
	}
	indices := make([]int, len(frozen.Points))
	for i := range indices {
		indices[i] = i
	}
	var calls []int // RunRecords serializes emit
	err = RunRecords(context.Background(), frozen, hashes, indices, func(i int, _ []byte) error {
		calls = append(calls, i)
		if i == failAt {
			return emitErr
		}
		return nil
	}, opts...)
	return calls, err
}

// TestRecordEmitErrorCancelsStudy pins the error contract of RunRecords'
// emit on the serial path: the error surfaces wrapped for errors.Is, no
// emit follows the failing one, and no point starts after the failing
// point (each of these Emulation points counts its 10 executions).
func TestRecordEmitErrorCancelsStudy(t *testing.T) {
	emitErr := errors.New("disk full")
	study := NewStudy("emit-error")
	for range 5 {
		study.Add(LatencyPoint{N: 3, Executions: 10})
	}
	before := obs.Executions.Value()
	calls, err := failingEmit(t, study, 1, emitErr, WithWorkers(1))
	if !errors.Is(err, emitErr) {
		t.Fatalf("error %v does not wrap the emit error", err)
	}
	if !slices.Equal(calls, []int{0, 1}) {
		t.Fatalf("emits %v, want [0 1]", calls)
	}
	if ran := obs.Executions.Value() - before; ran != 20 {
		t.Fatalf("%d executions, want the 20 of points 0 and 1", ran)
	}
}

// TestRecordEmitErrorParallelSurfaces pins the same contract on the
// pooled path, where other points are still running when the emit fails:
// the error surfaces, and no emit follows the failing one.
func TestRecordEmitErrorParallelSurfaces(t *testing.T) {
	emitErr := errors.New("downstream gone")
	calls, err := failingEmit(t, shardTestStudy(), 2, emitErr, WithWorkers(4))
	if !errors.Is(err, emitErr) {
		t.Fatalf("error %v does not wrap the emit error", err)
	}
	if k := slices.Index(calls, 2); k != len(calls)-1 {
		t.Fatalf("emits %v: want the failing point 2's last", calls)
	}
}

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
		var exec executed
		err := Run(context.Background(), study, WithWorkers(1), exec.option())
		if err == nil || !strings.Contains(err.Error(), "point 1") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Run error %v, want point 1 rejected with %q", tc.bad, err, tc.want)
		}
		if len(exec.indices) != 0 {
			t.Errorf("%+v: %d executions before the error, want none", tc.bad, len(exec.indices))
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
