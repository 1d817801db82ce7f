package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestChildStableAndIndependent(t *testing.T) {
	parent := New(7)
	c1 := parent.Child(3)
	// Drawing from the parent must not change what Child(3) returns.
	parent.Uint64()
	c2 := parent.Child(3)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Child is not stable under parent draws")
		}
	}
	// Different ids give different streams.
	a, b := parent.Child(1), parent.Child(2)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("children with different ids look identical")
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(123)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Float64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	varr := sum2/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("mean = %v, want 0.5", mean)
	}
	if math.Abs(varr-1.0/12) > 0.005 {
		t.Errorf("variance = %v, want 1/12", varr)
	}
}

func TestIntnBoundsAndUniformity(t *testing.T) {
	r := New(9)
	if err := quick.Check(func(k uint8) bool {
		n := int(k%31) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 7)
	const draws = 70000
	for i := 0; i < draws; i++ {
		counts[r.Intn(7)]++
	}
	for d, c := range counts {
		if math.Abs(float64(c)-draws/7.0) > 600 {
			t.Errorf("digit %d count %d deviates from %d", d, c, draws/7)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMoments(t *testing.T) {
	r := New(5)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(2.5)
		if v < 0 {
			t.Fatal("negative exponential sample")
		}
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	if math.Abs(mean-2.5) > 0.05 {
		t.Errorf("exp mean = %v, want 2.5", mean)
	}
	varr := sum2/n - mean*mean
	if math.Abs(varr-2.5*2.5) > 0.3 {
		t.Errorf("exp variance = %v, want 6.25", varr)
	}
}

func TestExpZeroMean(t *testing.T) {
	if v := New(1).Exp(0); v != 0 {
		t.Fatalf("Exp(0) = %v, want 0", v)
	}
}

func TestUniform(t *testing.T) {
	r := New(17)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
	if v := r.Uniform(3, 3); v != 3 {
		t.Fatalf("degenerate uniform = %v, want 3", v)
	}
}

func TestMul128(t *testing.T) {
	cases := []struct{ a, b, hi, lo uint64 }{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
		{1 << 32, 1 << 32, 1, 0},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul128(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

// TestReseedMatchesNew: reseeding a used stream in place must make it
// bit-identical to a freshly constructed one — including its Child
// derivations (the key is part of the reseed).
func TestReseedMatchesNew(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		s.Uint64()
	}
	s.Reseed(42)
	fresh := New(42)
	for i := 0; i < 64; i++ {
		if a, b := s.Uint64(), fresh.Uint64(); a != b {
			t.Fatalf("draw %d: reseeded %x != fresh %x", i, a, b)
		}
	}
	if a, b := s.Child(7).Uint64(), fresh.Child(7).Uint64(); a != b {
		t.Fatalf("child of reseeded stream differs: %x != %x", a, b)
	}
}

// TestChildIntoMatchesChild: in-place child derivation is bit-identical
// to Child and allocation-free.
func TestChildIntoMatchesChild(t *testing.T) {
	parent := New(3)
	var dst Stream
	for id := uint64(0); id < 50; id++ {
		parent.ChildInto(&dst, id)
		want := parent.Child(id)
		for i := 0; i < 8; i++ {
			if a, b := dst.Uint64(), want.Uint64(); a != b {
				t.Fatalf("id %d draw %d: ChildInto %x != Child %x", id, i, a, b)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		parent.ChildInto(&dst, 9)
	}); allocs > 0 {
		t.Fatalf("ChildInto allocates %.1f objects/op, want 0", allocs)
	}
}
