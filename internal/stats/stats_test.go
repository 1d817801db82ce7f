package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"ctsan/internal/rng"
)

// normal draws a normal sample by the polar (Marsaglia) method; the
// accumulator and CI tests want samples whose true moments are known.
func normal(r *rng.Stream, mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

func TestAccumulatorAgainstNaive(t *testing.T) {
	if err := quick.Check(func(seed uint64, k uint8) bool {
		n := int(k%50) + 2
		r := rng.New(seed)
		xs := make([]float64, n)
		var acc Accumulator
		for i := range xs {
			xs[i] = normal(r, 5, 3)
			acc.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		varr := 0.0
		for _, x := range xs {
			varr += (x - mean) * (x - mean)
		}
		varr /= float64(n - 1)
		return math.Abs(acc.Mean()-mean) < 1e-9*(1+math.Abs(mean)) &&
			math.Abs(acc.Var()-varr) < 1e-6*(1+varr) &&
			acc.N() == n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAccumulatorMerge checks the parallel combination against folding
// the concatenated sample serially.
func TestAccumulatorMerge(t *testing.T) {
	if err := quick.Check(func(seed uint64, ka, kb uint8) bool {
		na, nb := int(ka%40), int(kb%40)+1
		r := rng.New(seed)
		var a, b, serial Accumulator
		for i := 0; i < na; i++ {
			x := normal(r, -2, 4)
			a.Add(x)
			serial.Add(x)
		}
		for i := 0; i < nb; i++ {
			x := normal(r, 9, 0.5)
			b.Add(x)
			serial.Add(x)
		}
		a.Merge(&b)
		return a.N() == serial.N() &&
			a.Min() == serial.Min() && a.Max() == serial.Max() &&
			math.Abs(a.Mean()-serial.Mean()) < 1e-9*(1+math.Abs(serial.Mean())) &&
			math.Abs(a.Var()-serial.Var()) < 1e-6*(1+serial.Var())
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Merging into or from an empty accumulator degenerates to a copy.
	var empty, full Accumulator
	full.AddAll([]float64{1, 2, 3})
	cp := full
	full.Merge(&empty)
	if full != cp {
		t.Fatal("merging an empty accumulator changed the receiver")
	}
	empty.Merge(&full)
	if empty != full {
		t.Fatal("merging into an empty accumulator is not a copy")
	}
}

func TestAccumulatorMinMax(t *testing.T) {
	var a Accumulator
	a.AddAll([]float64{3, -1, 7, 2})
	if a.Min() != -1 || a.Max() != 7 {
		t.Fatalf("min/max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Var() != 0 || a.N() != 0 {
		t.Fatal("zero-value accumulator not empty")
	}
	if !math.IsInf(a.CI(0.9), 1) {
		t.Fatal("CI of empty accumulator should be +Inf")
	}
}

// TestTQuantile checks the Student-t quantiles against standard table
// values t_{0.95, df}.
func TestTQuantile(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{1, 6.3138}, {2, 2.9200}, {5, 2.0150}, {10, 1.8125},
		{30, 1.6973}, {100, 1.6602}, {1000, 1.6464},
	}
	for _, c := range cases {
		got := tQuantile(0.95, c.df)
		if math.Abs(got-c.want) > 2e-3*c.want {
			t.Errorf("t(0.95, %d) = %v, want %v", c.df, got, c.want)
		}
	}
	if v := tQuantile(0.5, 7); v != 0 {
		t.Errorf("median quantile = %v, want 0", v)
	}
	if v := tQuantile(0.05, 5); math.Abs(v+2.0150) > 5e-3 {
		t.Errorf("t(0.05,5) = %v, want -2.015", v)
	}
}

// tQuantileFullBisection is tQuantile as it was before the early exit:
// always 200 bisection steps. Kept here as the reference the shortened
// loop must match bit for bit.
func tQuantileFullBisection(p float64, df int) float64 {
	if p == 0.5 {
		return 0
	}
	lo, hi := 0.0, 1.0
	target := p
	flip := false
	if target < 0.5 {
		target = 1 - target
		flip = true
	}
	for tCDF(hi, df) < target {
		hi *= 2
		if hi > 1e9 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if tCDF(mid, df) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	q := (lo + hi) / 2
	if flip {
		return -q
	}
	return q
}

// TestTQuantileEarlyExitBitIdentical: stopping the bisection once lo and
// hi are adjacent floats changes no bit of any quantile — over df 1..200
// at the tail probabilities of the confidence levels in use (0.90 → 0.95)
// and around it, both tails, plus probabilities so extreme that the
// bracket search gives up (hi > 1e9) before the invariant holds.
func TestTQuantileEarlyExitBitIdentical(t *testing.T) {
	ps := []float64{0.95, 0.975, 0.995, 0.9, 0.75, 0.05, 0.025, 0.4, 0.6, 1 - 1e-9, 1 - 1e-15, 1e-12}
	for df := 1; df <= 200; df++ {
		for _, p := range ps {
			got, want := tQuantile(p, df), tQuantileFullBisection(p, df)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("tQuantile(%g, %d) = %x, 200-step reference %x", p, df, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestCICoverage: a 90% CI computed from normal samples should contain the
// true mean roughly 90% of the time.
func TestCICoverage(t *testing.T) {
	r := rng.New(12)
	const trials = 800
	hits := 0
	for i := 0; i < trials; i++ {
		var a Accumulator
		for j := 0; j < 20; j++ {
			a.Add(normal(r, 10, 4))
		}
		if math.Abs(a.Mean()-10) <= a.CI(0.90) {
			hits++
		}
	}
	cover := float64(hits) / trials
	if cover < 0.86 || cover > 0.94 {
		t.Errorf("90%% CI covered the mean in %.1f%% of trials", 100*cover)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	for _, c := range []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {9, 1},
	} {
		if got := e.At(c.x); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.N() != 4 {
		t.Errorf("N = %d", e.N())
	}
	if q := e.Quantile(0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := e.Quantile(1); q != 3 {
		t.Errorf("q1 = %v", q)
	}
	if m := e.Mean(); m != 2 {
		t.Errorf("mean = %v", m)
	}
}

func TestECDFMonotone(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		xs := make([]float64, 30)
		for i := range xs {
			xs[i] = normal(r, 0, 1)
		}
		e := NewECDF(xs)
		prev := -1.0
		for x := -3.0; x <= 3; x += 0.1 {
			p := e.At(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestECDFQuantileInverse(t *testing.T) {
	r := rng.New(77)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.Float64()
	}
	e := NewECDF(xs)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		x := e.Quantile(q)
		if p := e.At(x); math.Abs(p-q) > 0.02 {
			t.Errorf("At(Quantile(%v)) = %v", q, p)
		}
	}
}

func TestECDFDoesNotAliasInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	e := NewECDF(xs)
	if xs[0] != 3 {
		t.Fatal("NewECDF sorted the caller's slice")
	}
	xs[0] = -100
	if e.At(0) != 0 {
		t.Fatal("ECDF aliases caller data")
	}
}

func TestKSDistance(t *testing.T) {
	a := NewECDF([]float64{1, 2, 3})
	if d := KSDistance(a, a); d != 0 {
		t.Errorf("KS(a,a) = %v", d)
	}
	b := NewECDF([]float64{11, 12, 13})
	if d := KSDistance(a, b); d != 1 {
		t.Errorf("KS of disjoint supports = %v, want 1", d)
	}
	// Symmetry.
	c := NewECDF([]float64{1.5, 2.5, 3.5})
	if d1, d2 := KSDistance(a, c), KSDistance(c, a); d1 != d2 {
		t.Errorf("KS not symmetric: %v vs %v", d1, d2)
	}
}

func TestGrid(t *testing.T) {
	e := NewECDF([]float64{0, 1})
	xs, ps := e.Grid(0, 2, 4)
	if len(xs) != 5 || len(ps) != 5 {
		t.Fatalf("grid sizes %d/%d", len(xs), len(ps))
	}
	if xs[0] != 0 || xs[4] != 2 || ps[4] != 1 {
		t.Fatalf("grid endpoints wrong: %v %v", xs, ps)
	}
	if !sort.Float64sAreSorted(ps) {
		t.Fatal("grid probabilities not monotone")
	}
}

func TestRegIncBeta(t *testing.T) {
	// I_x(1,1) is the uniform CDF.
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := regIncBeta(1, 1, x); math.Abs(got-x) > 1e-9 {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// I_x(1/2,1/2) = 2/pi * asin(sqrt(x)).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		want := 2 / math.Pi * math.Asin(math.Sqrt(x))
		if got := regIncBeta(0.5, 0.5, x); math.Abs(got-want) > 1e-9 {
			t.Errorf("I_%v(.5,.5) = %v, want %v", x, got, want)
		}
	}
}

// AddAll folds a slice of observations.
func (a *Accumulator) AddAll(xs []float64) {
	for _, x := range xs {
		a.Add(x)
	}
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// Quantile returns the q-quantile (0<=q<=1) by linear interpolation.
func (e *ECDF) Quantile(q float64) float64 {
	return QuantileSorted(e.sorted, q)
}

// Mean returns the sample mean of the underlying data.
func (e *ECDF) Mean() float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range e.sorted {
		s += v
	}
	return s / float64(len(e.sorted))
}
