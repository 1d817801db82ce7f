package dist

import (
	"math"
	"sort"
	"testing"

	"ctsan/internal/rng"
)

// sample draws n values from d.
func sample(d Dist, n int, seed uint64) []float64 {
	r := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(r)
	}
	return xs
}

func moments(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs) - 1)
	return mean, variance
}

func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

func TestAnalyticMeans(t *testing.T) {
	mix := MustMixture(
		Component{P: 0.8, D: U(0.1, 0.13)},
		Component{P: 0.2, D: U(0.145, 0.35)},
	)
	cases := []struct {
		d    Dist
		want float64
	}{
		{Det(0), 0},
		{Det(5), 5},
		{U(2, 4), 3},
		{U(7, 7), 7},
		{Exp(0), 0},
		{Exp(7), 7},
		{mix, 0.8*0.115 + 0.2*0.2475},
		{Bimodal(0.8, 0.1, 0.13, 0.145, 0.35), 0.8*0.115 + 0.2*0.2475},
	}
	for _, c := range cases {
		if got := c.d.Mean(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v.Mean() = %g, want %g", c.d, got, c.want)
		}
	}
}

func TestSampledMomentsMatchAnalytic(t *testing.T) {
	const n = 200000
	cases := []struct {
		d                 Dist
		wantMean, wantVar float64
	}{
		{Det(3), 3, 0},
		{U(2, 6), 4, 16.0 / 12},              // Var U[a,b] = (b-a)²/12
		{Exp(5), 5, 25},                      // Var Exp = mean²
		{Bimodal(0.5, 0, 1, 9, 11), 5.25, 0}, // variance checked below
	}
	for i, c := range cases {
		xs := sample(c.d, n, uint64(i)+1)
		mean, variance := moments(xs)
		tol := 0.02 * math.Max(c.wantMean, 1)
		if math.Abs(mean-c.wantMean) > tol {
			t.Errorf("%v: sampled mean %g, want %g ± %g", c.d, mean, c.wantMean, tol)
		}
		if c.wantVar > 0 && math.Abs(variance-c.wantVar) > 0.05*c.wantVar {
			t.Errorf("%v: sampled variance %g, want %g", c.d, variance, c.wantVar)
		}
	}
	// Mixture variance: E[X²] − mean² with disjoint uniform supports.
	// E[X²] = 0.5·(1/3) + 0.5·(E[U(9,11)²]) ; E[U(9,11)²] = Var + mean² = 1/3 + 100.
	xs := sample(Bimodal(0.5, 0, 1, 9, 11), n, 99)
	_, variance := moments(xs)
	wantVar := 0.5*(1.0/3) + 0.5*(1.0/3+100) - 5.25*5.25
	if math.Abs(variance-wantVar) > 0.02*wantVar {
		t.Errorf("bimodal variance %g, want %g", variance, wantVar)
	}
}

func TestSampledQuantilesMatchAnalytic(t *testing.T) {
	const n = 200000
	// Exp quantile: F⁻¹(q) = −mean·ln(1−q); U quantile: lo + q·(hi−lo).
	exp5 := sample(Exp(5), n, 1)
	for _, q := range []float64{0.25, 0.5, 0.9} {
		want := -5 * math.Log(1-q)
		if got := quantile(exp5, q); math.Abs(got-want) > 0.05*want {
			t.Errorf("Exp(5) q%.2f = %g, want %g", q, got, want)
		}
	}
	u := sample(U(2, 10), n, 2)
	for _, q := range []float64{0.1, 0.5, 0.95} {
		want := 2 + q*8
		if got := quantile(u, q); math.Abs(got-want) > 0.05 {
			t.Errorf("U(2,10) q%.2f = %g, want %g", q, got, want)
		}
	}
	det := sample(Det(4), 1000, 3)
	for _, q := range []float64{0, 0.5, 1} {
		if got := quantile(det, q); got != 4 {
			t.Errorf("Det(4) q%.2f = %g", q, got)
		}
	}
}

func TestSupports(t *testing.T) {
	for _, x := range sample(U(2, 4), 10000, 4) {
		if x < 2 || x >= 4 {
			t.Fatalf("U(2,4) produced %g", x)
		}
	}
	for _, x := range sample(Exp(3), 10000, 5) {
		if x < 0 {
			t.Fatalf("Exp(3) produced %g", x)
		}
	}
	// Disjoint-support mixture: component selection frequency matches P.
	mix := Bimodal(0.3, 0, 1, 10, 11)
	low := 0
	xs := sample(mix, 100000, 6)
	for _, x := range xs {
		if x < 5 {
			low++
		}
	}
	if frac := float64(low) / float64(len(xs)); math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("mixture picked the 0.3-component %.3f of the time", frac)
	}
}

func TestMixtureValidation(t *testing.T) {
	if _, err := NewMixture(); err == nil {
		t.Error("empty mixture accepted")
	}
	if _, err := NewMixture(Component{P: 0.7, D: Det(1)}); err == nil {
		t.Error("probabilities summing to 0.7 accepted")
	}
	if _, err := NewMixture(Component{P: -0.1, D: Det(1)}, Component{P: 1.1, D: Det(2)}); err == nil {
		t.Error("negative probability accepted")
	}
	if _, err := NewMixture(Component{P: 1, D: nil}); err == nil {
		t.Error("nil component accepted")
	}
	if _, err := NewMixture(Component{P: 0.5, D: Det(1)}, Component{P: 0.5, D: Det(2)}); err != nil {
		t.Errorf("valid mixture rejected: %v", err)
	}
}

func TestConstructorPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("U(4,2)", func() { U(4, 2) })
	expectPanic("Exp(-1)", func() { Exp(-1) })
	expectPanic("MustMixture(bad)", func() { MustMixture(Component{P: 0.2, D: Det(1)}) })
}

func TestDetConsumesNoRandomness(t *testing.T) {
	r := rng.New(1)
	before := r.Uint64()
	r = rng.New(1)
	Det(5).Sample(r)
	if after := r.Uint64(); after != before {
		t.Fatal("Det.Sample advanced the stream")
	}
}

// twoDraws is a distribution of no family Skip knows: Skip samples it.
type twoDraws struct{}

func (twoDraws) Sample(r *rng.Stream) float64 { return r.Float64() + r.Float64() }
func (twoDraws) Mean() float64                { return 1 }

// TestSkipLeavesTheStreamWhereSampleDoes: after Skip, a stream is in the
// state Sample leaves it in, for every family, a mixture of mixtures
// whose branches draw different numbers of variates, and a distribution
// of no family.
func TestSkipLeavesTheStreamWhereSampleDoes(t *testing.T) {
	nested := MustMixture(
		Component{P: 0.3, D: Det(2)},
		Component{P: 0.3, D: Exp(0)},
		Component{P: 0.2, D: MustMixture(Component{P: 0.5, D: U(0, 1)}, Component{P: 0.5, D: Exp(3)})},
		Component{P: 0.2, D: Bimodal(0.8, 0.1, 0.13, 0.145, 0.35)},
	)
	for _, d := range []Dist{Det(1), U(0.02, 0.03), Exp(0), Exp(0.3), nested, twoDraws{}} {
		for seed := uint64(1); seed <= 500; seed++ {
			sampled, skipped := rng.New(seed), rng.New(seed)
			d.Sample(sampled)
			Skip(d, skipped)
			if *sampled != *skipped {
				t.Fatalf("%v, seed %d: Skip left the stream elsewhere than Sample", d, seed)
			}
		}
	}
}
