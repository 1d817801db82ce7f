package san

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ctsan/internal/dist"
	"ctsan/internal/rng"
)

// branching builds a model with instantaneous activities, cases, gates and
// FIFO competition — every simulator feature Reset must restore.
func branching() (*Model, *Place) {
	m := NewModel("branching")
	src := m.Place("src", 3)
	q := m.Place("q", 0)
	server := m.Place("server", 1)
	busy := m.Place("busy", 0)
	done := m.Place("done", 0)
	lost := m.Place("lost", 0)
	m.Timed("arrive", Fixed(dist.Exp(0.7))).Input(src).Output(q)
	m.Instant("seize", 1).Input(q, server).FIFO(q).Output(busy)
	serve := m.Timed("serve", Fixed(dist.U(0.5, 1.5))).Input(busy)
	serve.Case(0.8).Output(server, done)
	serve.Case(0.2).Output(server, lost)
	return m, done
}

// TestResetEquivalentToNewSim: a reused, Reset Sim must replay the exact
// trajectory a fresh NewSim produces from the same stream.
func TestResetEquivalentToNewSim(t *testing.T) {
	m, done := branching()
	stop := func(mk *Marking) bool { return mk.Get(done)+mk.Get(m.Places()[5]) == 3 }
	reused := NewSim(m, rng.New(999))
	for seed := uint64(1); seed <= 50; seed++ {
		fresh := NewSim(m, rng.New(seed))
		ft, fstop := fresh.Run(1e6, stop)
		reused.Reset(rng.New(seed))
		rt, rstop := reused.Run(1e6, stop)
		if ft != rt || fstop != rstop || fresh.Fired() != reused.Fired() {
			t.Fatalf("seed %d: fresh (t=%v stop=%v fired=%d) != reset (t=%v stop=%v fired=%d)",
				seed, ft, fstop, fresh.Fired(), rt, rstop, reused.Fired())
		}
		for i, p := range m.Places() {
			if fresh.Marking().Get(p) != reused.Marking().Get(p) {
				t.Fatalf("seed %d: final marking differs at place %d", seed, i)
			}
		}
	}
}

// TestTransientDeterministicAcrossWorkers: the differential determinism
// guarantee — for a fixed seed, the parallel engine produces byte-identical
// samples to the serial reference (Workers: 1) at every worker count.
func TestTransientDeterministicAcrossWorkers(t *testing.T) {
	m, done := branching()
	spec := func(workers int) TransientSpec {
		return TransientSpec{
			Replicas: 600,
			Tmax:     3, // truncates some replicas, exercising that path too
			Workers:  workers,
			Stop:     func(mk *Marking) bool { return mk.Get(done) >= 2 },
			Measure: func(mk *Marking, tt float64) float64 {
				return tt + float64(mk.Get(done))
			},
		}
	}
	ref, err := NewSolver(m).Transient(context.Background(), rng.New(42), spec(1))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Digest.N() == 0 || ref.Truncated == 0 {
		t.Fatalf("weak reference: %d samples, %d truncated — tune the spec", ref.Digest.N(), ref.Truncated)
	}
	for _, w := range []int{2, 8} {
		got, err := NewSolver(m).Transient(context.Background(), rng.New(42), spec(w))
		if err != nil {
			t.Fatal(err)
		}
		if got.Truncated != ref.Truncated {
			t.Fatalf("workers=%d: truncated %d, want %d", w, got.Truncated, ref.Truncated)
		}
		gs, rs := got.Digest.Exact(), ref.Digest.Exact()
		if len(gs) != len(rs) {
			t.Fatalf("workers=%d: %d samples, want %d", w, len(gs), len(rs))
		}
		for i := range rs {
			if gs[i] != rs[i] {
				t.Fatalf("workers=%d: sample %d = %v, want %v (bit-exact)", w, i, gs[i], rs[i])
			}
		}
		if got.Digest.Mean() != ref.Digest.Mean() || got.Digest.N() != ref.Digest.N() {
			t.Fatalf("workers=%d: digest moments differ", w)
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if got.Digest.Quantile(q) != ref.Digest.Quantile(q) {
				t.Fatalf("workers=%d: q=%g differs", w, q)
			}
		}
	}
}

// TestSolverReuseMatchesFresh: successive studies on one Solver — other
// seeds, worker counts growing and shrinking between them — return what a
// fresh Solver returns for each, bit for bit: the simulators a Solver
// keeps between studies never show in a result.
func TestSolverReuseMatchesFresh(t *testing.T) {
	m, done := branching()
	spec := TransientSpec{
		Replicas: 200,
		Tmax:     3,
		Stop:     func(mk *Marking) bool { return mk.Get(done) >= 2 },
	}
	reused := NewSolver(m)
	for i, workers := range []int{1, 8, 2, 1, 8} {
		spec.Workers = workers
		seed := uint64(40 + i)
		want, err := NewSolver(m).Transient(context.Background(), rng.New(seed), spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reused.Transient(context.Background(), rng.New(seed), spec)
		if err != nil {
			t.Fatal(err)
		}
		if got.Truncated != want.Truncated || !reflect.DeepEqual(got.Digest.Exact(), want.Digest.Exact()) {
			t.Fatalf("study %d (workers=%d): reused solver differs from a fresh one", i, workers)
		}
	}
}

// TestTransientReplicaLoopAllocs: with a shared model, Sim reuse and a
// stream re-derived in place, the replica body allocates nothing at all.
// Any object per replica — a fresh simulator, a fresh stream, a closure —
// fails this.
func TestTransientReplicaLoopAllocs(t *testing.T) {
	m, done := branching()
	root, child := rng.New(1), rng.New(1)
	sim := NewSim(m, child)
	stop := func(mk *Marking) bool { return mk.Get(done) >= 1 }
	// Warm up, then measure the Reset+Run replica body.
	sim.Run(1e6, stop)
	replica := uint64(0)
	if allocs := testing.AllocsPerRun(200, func() {
		root.ChildInto(child, replica)
		replica++
		sim.Reset(child)
		sim.Run(1e6, stop)
	}); allocs != 0 {
		t.Fatalf("replica loop allocates %.1f objects/op, want 0", allocs)
	}
}

// TestTransientAllocsIndependentOfReplicas: a whole Transient study pays
// for its outcome slice, one simulator and one stream per worker, and the
// result; nothing is allocated per replica. The only growth left is the
// simulator's buffers (event pool, token queues) stretching to the largest
// replica seen so far, a handful of objects over thousands of replicas.
// (Every replica is discarded by Measure so the digest stays empty.)
func TestTransientAllocsIndependentOfReplicas(t *testing.T) {
	m, done := branching()
	study := func(replicas int) float64 {
		return testing.AllocsPerRun(5, func() {
			_, err := NewSolver(m).Transient(context.Background(), rng.New(5), TransientSpec{
				Replicas: replicas,
				Tmax:     1e6,
				Workers:  1,
				Stop:     func(mk *Marking) bool { return mk.Get(done) >= 1 },
				Measure:  func(*Marking, float64) float64 { return math.NaN() },
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := study(50), study(2000); many > few+20 {
		t.Fatalf("Transient allocates %.0f objects for 50 replicas and %.0f for 2000: something is allocated per replica", few, many)
	}
}

// BenchmarkSimReset is the replica body with simulator reuse.
func BenchmarkSimReset(b *testing.B) {
	m, done := branching()
	stop := func(mk *Marking) bool { return mk.Get(done) >= 1 }
	root, child := rng.New(1), rng.New(1)
	sim := NewSim(m, child)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root.ChildInto(child, uint64(i))
		sim.Reset(child)
		sim.Run(1e6, stop)
	}
}

// BenchmarkSimNewPerReplica is the pre-Reset baseline: a fresh simulator
// per replica.
func BenchmarkSimNewPerReplica(b *testing.B) {
	m, done := branching()
	stop := func(mk *Marking) bool { return mk.Get(done) >= 1 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := NewSim(m, rng.New(uint64(i)+1))
		sim.Run(1e6, stop)
	}
}
