package san

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ctsan/internal/dist"
	"ctsan/internal/parallel"
	"ctsan/internal/rng"
)

// expModel builds a one-shot exponential timer model.
func expModel(mean float64) func() *Model {
	return func() *Model {
		m := NewModel("exp")
		p := m.Place("p", 1)
		done := m.Place("done", 0)
		m.Timed("fire", Fixed(dist.Exp(mean))).Input(p).Output(done)
		return m
	}
}

func TestTransientEstimatesMean(t *testing.T) {
	// Build once and share: models carry no run-time state, so one
	// instance can back every (possibly concurrent) replica.
	m := expModel(2)()
	donePlace := m.Places()[1]
	res, err := NewSolver(m).Transient(context.Background(), rng.New(3), TransientSpec{
		Replicas: 4000,
		Tmax:     1e6,
		Stop:     func(mk *Marking) bool { return mk.Get(donePlace) == 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Digest.Mean()-2) > 0.1 {
		t.Fatalf("mean stop time %v, want ~2", res.Digest.Mean())
	}
	if res.Truncated != 0 {
		t.Fatalf("unexpected truncations: %d", res.Truncated)
	}
	if res.Digest.ECDF().N() != 4000 {
		t.Fatalf("sample count %d", res.Digest.ECDF().N())
	}
	// Exponential median = mean*ln2.
	if med := res.Digest.ECDF().Quantile(0.5); math.Abs(med-2*math.Ln2) > 0.12 {
		t.Fatalf("median %v, want ~%v", med, 2*math.Ln2)
	}
}

func TestTransientTruncation(t *testing.T) {
	m := expModel(10)()
	donePlace := m.Places()[1]
	res, err := NewSolver(m).Transient(context.Background(), rng.New(3), TransientSpec{
		Replicas: 500,
		Tmax:     1, // most replicas exceed this horizon
		Stop:     func(mk *Marking) bool { return mk.Get(donePlace) == 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated < 400 {
		t.Fatalf("expected heavy truncation, got %d/500", res.Truncated)
	}
}

func TestTransientMeasureDiscard(t *testing.T) {
	m := expModel(1)()
	donePlace := m.Places()[1]
	res, err := NewSolver(m).Transient(context.Background(), rng.New(3), TransientSpec{
		Replicas: 100,
		Tmax:     1e6,
		Stop:     func(mk *Marking) bool { return mk.Get(donePlace) == 1 },
		Measure: func(mk *Marking, tt float64) float64 {
			if tt > 1 {
				return math.NaN() // discard
			}
			return tt * 2
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest.N() == 0 || res.Digest.N() == 100 {
		t.Fatalf("discarding Measure kept %d samples", res.Digest.N())
	}
	if res.Digest.Max() > 2 {
		t.Fatalf("Measure transform ignored: max %v", res.Digest.Max())
	}
}

func TestTransientSpecValidation(t *testing.T) {
	m := expModel(1)()
	if _, err := NewSolver(m).Transient(context.Background(), rng.New(1), TransientSpec{Replicas: 0, Tmax: 1, Stop: func(*Marking) bool { return true }}); err == nil {
		t.Error("zero replicas accepted")
	}
	if _, err := NewSolver(m).Transient(context.Background(), rng.New(1), TransientSpec{Replicas: 1, Tmax: 1}); err == nil {
		t.Error("nil stop accepted")
	}
	if _, err := NewSolver(m).Transient(context.Background(), rng.New(1), TransientSpec{Replicas: 1, Tmax: 0, Stop: func(*Marking) bool { return true }}); err == nil {
		t.Error("zero Tmax accepted")
	}
}

// TestMM1Theory checks the engine against the M/M/1 mean queue length
// rho/(1-rho), a standard DES validation.
func TestMM1Theory(t *testing.T) {
	const (
		lambda  = 0.5
		mu      = 1.0
		horizon = 100000.0
	)
	m := NewModel("mm1")
	src := m.Place("src", 1)
	q := m.Place("q", 0)
	server := m.Place("server", 1)
	busy := m.Place("busy", 0)
	m.Timed("arrive", Fixed(dist.Exp(1/lambda))).Input(src).Output(src, q)
	m.Instant("seize", 0).Input(q, server).FIFO(q).Output(busy)
	m.Timed("serve", Fixed(dist.Exp(1/mu))).Input(busy).Output(server)
	s := NewSim(m, rng.New(21))
	var area, last, prev float64
	s.OnFire(func(*Activity, int) {
		now := s.Now()
		area += prev * (now - last)
		last = now
		prev = float64(s.Marking().Get(q) + s.Marking().Get(busy))
	})
	s.Run(horizon, nil)
	avg := area / s.Now()
	rho := lambda / mu
	want := rho / (1 - rho)
	if math.Abs(avg-want) > 0.08 {
		t.Fatalf("M/M/1 mean number in system %v, want %v", avg, want)
	}
}

// replicaByReplica is Transient without a pool, a Solver or a chunk: one
// fresh simulator per replica on the parent stream's Child(i), folded in
// order. What the chunked study must reproduce bit for bit.
func replicaByReplica(m *Model, r *rng.Stream, spec TransientSpec) *TransientResult {
	res := &TransientResult{}
	for i := 0; i < spec.Replicas; i++ {
		sim := NewSim(m, r.Child(uint64(i)))
		t, stopped := sim.Run(spec.Tmax, spec.Stop)
		if !stopped {
			res.Truncated++
		} else if v := spec.Measure(sim.Marking(), t); v != v {
			res.Discarded++
		} else {
			res.Digest.Add(v)
		}
	}
	return res
}

// TestTransientChunkBoundaries: replica counts around the chunk size, at
// 1, 2 and 8 workers (the chunk shrinks with the pool), return what the
// replica-by-replica reference returns — same samples in the same order,
// same truncations and discards, every replica accounted for once.
func TestTransientChunkBoundaries(t *testing.T) {
	m, done := branching()
	for _, replicas := range []int{1, replicaChunk - 1, replicaChunk, replicaChunk + 1, 10*replicaChunk + 3} {
		spec := TransientSpec{
			Replicas: replicas,
			Tmax:     3, // truncates some replicas
			Stop:     func(mk *Marking) bool { return mk.Get(done) >= 2 },
			Measure: func(mk *Marking, tt float64) float64 {
				if tt < 1.5 {
					return math.NaN() // discards some more
				}
				return tt
			},
		}
		want := replicaByReplica(m, rng.New(11), spec)
		if got := want.Digest.N() + want.Truncated + want.Discarded; got != replicas {
			t.Fatalf("reference accounts for %d of %d replicas", got, replicas)
		}
		for _, workers := range []int{1, 2, 8} {
			spec.Workers = workers
			got, err := NewSolver(m).Transient(context.Background(), rng.New(11), spec)
			if err != nil {
				t.Fatal(err)
			}
			if got.Truncated != want.Truncated || got.Discarded != want.Discarded ||
				!reflect.DeepEqual(got.Digest.Exact(), want.Digest.Exact()) || got.Digest.Mean() != want.Digest.Mean() {
				t.Fatalf("%d replicas, workers=%d: %d kept / %d truncated / %d discarded (mean %v), replica by replica %d / %d / %d (mean %v)",
					replicas, workers, got.Digest.N(), got.Truncated, got.Discarded, got.Digest.Mean(),
					want.Digest.N(), want.Truncated, want.Discarded, want.Digest.Mean())
			}
		}
	}
}

// TestTransientCancelsInsideAChunk: cancellation is observed between two
// replicas of one chunk, not at the next chunk boundary. On one worker no
// replica starts after the one that cancelled; on two, at most the one
// the other worker was in the middle of.
func TestTransientCancelsInsideAChunk(t *testing.T) {
	m := expModel(1)()
	donePlace := m.Places()[1]
	const cancelAt = 10 // well inside the first chunk
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var measured atomic.Int64
		_, err := NewSolver(m).Transient(ctx, rng.New(3), TransientSpec{
			Replicas: 10 * replicaChunk,
			Tmax:     1e6,
			Workers:  workers,
			Stop:     func(mk *Marking) bool { return mk.Get(donePlace) == 1 },
			Measure: func(_ *Marking, tt float64) float64 {
				if measured.Add(1) == cancelAt {
					cancel()
				}
				return tt
			},
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: canceled study returned %v", workers, err)
		}
		if n := measured.Load(); n < cancelAt || n > cancelAt+int64(workers)-1 {
			t.Fatalf("workers=%d: %d replicas ran, cancellation came during number %d", workers, n, cancelAt)
		}
	}
}

// TestTransientPanicNamesItsReplica: a panic inside a replica — here in
// Measure, recognising its victim by its stop time — reaches the caller
// as a *parallel.UnitPanic carrying the replica's index, not the index of
// the chunk it ran in, with the original value and stack.
func TestTransientPanicNamesItsReplica(t *testing.T) {
	m := expModel(1)()
	donePlace := m.Places()[1]
	stop := func(mk *Marking) bool { return mk.Get(donePlace) == 1 }
	const replicas, victim = 3 * replicaChunk, replicaChunk + 7
	root := rng.New(9)
	var victimTime float64
	for i := 0; i < replicas; i++ {
		tt, _ := NewSim(m, root.Child(uint64(i))).Run(1e6, stop)
		switch {
		case i == victim:
			victimTime = tt
		case tt == victimTime:
			t.Fatalf("replica %d stops at the victim's time %v: pick another seed", i, tt)
		}
	}
	for _, workers := range []int{1, 8} {
		func() {
			defer func() {
				up, ok := recover().(*parallel.UnitPanic)
				if !ok {
					t.Fatalf("workers=%d: no *parallel.UnitPanic reached the caller", workers)
				}
				if up.Index != victim || up.Value != "boom" || !strings.Contains(string(up.Stack), "TestTransientPanicNamesItsReplica") {
					t.Fatalf("workers=%d: panic reported for unit %d (%v), want replica %d", workers, up.Index, up.Value, victim)
				}
			}()
			_, _ = NewSolver(m).Transient(context.Background(), rng.New(9), TransientSpec{
				Replicas: replicas,
				Tmax:     1e6,
				Workers:  workers,
				Stop:     stop,
				Measure: func(_ *Marking, tt float64) float64 {
					if tt == victimTime {
						panic("boom")
					}
					return tt
				},
			})
		}()
	}
}

// TestTailStudyRunsOnBothWorkers: two studies are the two units of a pool
// of two, the second twenty times the first. Whichever worker is left
// without a unit joins the long study's replicas, so its solver ends with
// a simulator under both worker indices — and the study's numbers are
// those of the serial reference, whoever ran which replica.
func TestTailStudyRunsOnBothWorkers(t *testing.T) {
	m, done := branching()
	spec := func(replicas int) TransientSpec {
		return TransientSpec{
			Replicas: replicas,
			Tmax:     3,
			Stop:     func(mk *Marking) bool { return mk.Get(done) >= 2 },
		}
	}
	ctx := context.Background()
	replicas := []int{1500, 30000}
	solvers := []*Solver{NewSolver(m), NewSolver(m)}
	p := parallel.NewPool(2)
	got := make([]*TransientResult, 2)
	err := parallel.StreamOn(ctx, p, []int{0, 1}, func(w, i int) (*TransientResult, error) {
		return solvers[i].TransientOn(ctx, p, w, rng.New(7), spec(replicas[i]))
	}, func(i int, r *TransientResult) error {
		got[i] = r
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		if wk := solvers[1].workers[w]; wk == nil || wk.sim == nil {
			t.Errorf("the long study ran no replica under worker index %d", w)
		}
	}
	serial := spec(replicas[1])
	serial.Workers = 1
	ref, err := NewSolver(m).Transient(ctx, rng.New(7), serial)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].Truncated != ref.Truncated || got[1].Digest.N() != ref.Digest.N() || got[1].Digest.Mean() != ref.Digest.Mean() ||
		!reflect.DeepEqual(got[1].Digest.Quantiles(0.5, 0.9, 0.99), ref.Digest.Quantiles(0.5, 0.9, 0.99)) {
		t.Errorf("helped study differs from the serial reference: %d truncated, n %d, mean %v; want %d, %d, %v",
			got[1].Truncated, got[1].Digest.N(), got[1].Digest.Mean(), ref.Truncated, ref.Digest.N(), ref.Digest.Mean())
	}
}
