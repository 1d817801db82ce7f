package san

import (
	"context"
	"math"
	"testing"

	"ctsan/internal/dist"
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
	if res.ECDF().N() != 4000 {
		t.Fatalf("sample count %d", res.ECDF().N())
	}
	// Exponential median = mean*ln2.
	if med := res.ECDF().Quantile(0.5); math.Abs(med-2*math.Ln2) > 0.12 {
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
