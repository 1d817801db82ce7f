// Package stats provides the estimators used to report experiment results:
// running mean/variance accumulators, Student-t confidence intervals (the
// paper reports 90% intervals, §5.2 and §5.4), empirical CDFs (Figs. 6, 7)
// and quantiles.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Accumulator computes running mean and variance with Welford's method.
// The zero value is an empty accumulator ready for use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += float64(d * (x - a.mean))
}

// Merge folds another accumulator into this one using the parallel
// variance combination (Chan et al.), so per-replica accumulators built
// independently can be reduced to exactly the campaign-level moments.
// Campaign folds merge in replica-index order to keep results identical
// at any worker count.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	na, nb := float64(a.n), float64(b.n)
	d := b.mean - a.mean
	n := na + nb
	a.m2 += b.m2 + d*d*na*nb/n
	a.mean += d * nb / n
	a.n += b.n
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
}

// State returns the accumulator's complete internal state — observation
// count, running mean, the Welford M2 sum, and the extremes — so it can
// be serialized exactly. Together with AccumulatorFromState it is the
// persistence contract of the type: the float64 bit patterns round-trip
// unchanged, so a restored accumulator is bit-identical to the original
// (metrics.Digest's wire format relies on this).
func (a *Accumulator) State() (n int, mean, m2, min, max float64) {
	return a.n, a.mean, a.m2, a.min, a.max
}

// AccumulatorFromState reconstructs an accumulator from a State dump.
// It rejects a negative count and the inconsistent "empty but nonzero
// moments" shape so a corrupted serialization cannot smuggle in NaN-free
// nonsense; all other float bit patterns are restored verbatim.
func AccumulatorFromState(n int, mean, m2, min, max float64) (Accumulator, error) {
	if n < 0 {
		return Accumulator{}, fmt.Errorf("stats: accumulator state with negative n %d", n)
	}
	if n == 0 && (mean != 0 || m2 != 0 || min != 0 || max != 0) {
		return Accumulator{}, fmt.Errorf("stats: empty accumulator state with nonzero moments")
	}
	return Accumulator{n: n, mean: mean, m2: m2, min: min, max: max}, nil
}

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 if empty).
func (a *Accumulator) Mean() float64 { return a.mean }

// Var returns the unbiased sample variance (0 if fewer than 2 observations).
func (a *Accumulator) Var() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Var()) }

// Min returns the smallest observation (0 if empty).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 if empty).
func (a *Accumulator) Max() float64 { return a.max }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n < 2 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// CI returns the half-width of the confidence interval for the mean at the
// given confidence level (e.g. 0.90), using the Student-t distribution with
// n-1 degrees of freedom.
func (a *Accumulator) CI(level float64) float64 {
	if a.n < 2 {
		return math.Inf(1)
	}
	return ciQuantile(level, a.n-1) * a.StdErr()
}

// t90 memoises the Student-t quantile of two-sided 90% intervals — the
// level every result reports — by degrees of freedom below len(t90), as
// the float's bits; 0 is not computed yet (the quantile is positive). A
// quantile is a pure function of df, so the first caller to meet a df
// stores it and every later one reads the same bits; two workers that
// race store the same value. The zero table costs nothing at start-up.
var t90 [1 << 14]atomic.Uint64

// ciQuantile is the Student-t quantile of a two-sided interval at level
// with df degrees of freedom, read from t90 at level 0.90.
func ciQuantile(level float64, df int) float64 {
	p := 1 - float64((1-level)/2)
	if level != 0.90 || df >= len(t90) {
		return tQuantile(p, df)
	}
	if b := t90[df].Load(); b != 0 {
		return math.Float64frombits(b)
	}
	q := tQuantile(p, df)
	t90[df].Store(math.Float64bits(q))
	return q
}

// String formats the accumulator as "mean ± halfwidth (n=N)" at 90%.
func (a *Accumulator) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", a.Mean(), a.CI(0.90), a.n)
}

// tQuantile returns the p-quantile of the Student-t distribution with df
// degrees of freedom. It uses the exact relationship with the incomplete
// beta function, inverted by bisection; accuracy is far better than needed
// for confidence intervals.
func tQuantile(p float64, df int) float64 {
	if df <= 0 {
		panic("stats: tQuantile with non-positive df")
	}
	if p <= 0 || p >= 1 {
		panic("stats: tQuantile with p outside (0,1)")
	}
	if p == 0.5 {
		return 0
	}
	// CDF(t) is monotone; bracket then bisect.
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
		if mid == lo || mid == hi {
			// lo and hi are adjacent floats (or equal): by the loop's
			// invariant (tCDF(lo) < target <= tCDF(hi)) every further
			// iteration leaves both — and so the midpoint returned —
			// where they are, at the price of one regIncBeta each.
			break
		}
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

// tCDF returns P(T <= t) for Student-t with df degrees of freedom, t >= 0.
func tCDF(t float64, df int) float64 {
	if t < 0 {
		return 1 - tCDF(-t, df)
	}
	x := float64(df) / (float64(df) + float64(t*t))
	// P(T<=t) = 1 - 0.5 * I_x(df/2, 1/2)
	return 1 - float64(0.5*regIncBeta(float64(df)/2, 0.5, x))
}

// regIncBeta computes the regularized incomplete beta function I_x(a,b)
// using the continued-fraction expansion (Numerical Recipes betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a) + lgamma(b) - lgamma(a+b)
	if x < (a+1)/(a+b+2) {
		front := math.Exp(float64(a*math.Log(x))+float64(b*math.Log(1-x))-lbeta) / a
		return front * betacf(a, b, x)
	}
	// Symmetry I_x(a,b) = 1 - I_{1-x}(b,a) for the fast-converging branch.
	front := math.Exp(float64(a*math.Log(x))+float64(b*math.Log(1-x))-lbeta) / b
	return 1 - float64(front*betacf(b, a, 1-x))
}

// betacf evaluates the continued fraction for the incomplete beta function.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := float64(2 * fm)
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + float64(aa*d)
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := float64(d * c)
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// ECDF is an empirical cumulative distribution function built from a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the sample (which it copies and sorts).
func NewECDF(sample []float64) *ECDF {
	s := make([]float64, len(sample))
	copy(s, sample)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns the fraction of the sample <= x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, x)
	// SearchFloat64s returns the first index with sorted[i] >= x; advance
	// over equal values to count them as <= x.
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// QuantileSorted interpolates the q-quantile of an already-sorted
// sample. It is the single definition of the interpolation rule: the
// exact mode of metrics.Digest calls it, and so do the tests that hold
// digest quantiles bit-identical to the slice-and-sort path, so that
// contract cannot drift between two copies of the formula.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := float64(q * float64(n-1))
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= n {
		return sorted[n-1]
	}
	// The weighted sum can round an ulp outside its two neighbours (always
	// when they are equal and frac is inexact); a quantile never leaves them.
	lo, hi := sorted[i], sorted[i+1]
	return min(max(float64(lo*(1-frac))+float64(hi*frac), lo), hi)
}

// Grid evaluates the ECDF on an evenly spaced grid of k+1 points spanning
// [lo, hi], returning (xs, ps). Used to print figure series.
func (e *ECDF) Grid(lo, hi float64, k int) (xs, ps []float64) {
	if k < 1 {
		k = 1
	}
	xs = make([]float64, k+1)
	ps = make([]float64, k+1)
	for i := 0; i <= k; i++ {
		x := lo + (hi-lo)*float64(i)/float64(k)
		xs[i] = x
		ps[i] = e.At(x)
	}
	return xs, ps
}

// KSDistance returns the Kolmogorov–Smirnov distance between two ECDFs,
// evaluated at the union of their jump points. Used in model-validation
// tests that compare measured and simulated latency distributions.
func KSDistance(a, b *ECDF) float64 {
	d := 0.0
	for _, x := range a.sorted {
		if v := math.Abs(a.At(x) - b.At(x)); v > d {
			d = v
		}
	}
	for _, x := range b.sorted {
		if v := math.Abs(a.At(x) - b.At(x)); v > d {
			d = v
		}
	}
	return d
}
