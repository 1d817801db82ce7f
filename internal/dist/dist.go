// Package dist provides the small family of delay distributions used by
// the emulated cluster (internal/netsim) and the SAN model
// (internal/sanmodel): deterministic, uniform, exponential, and finite
// mixtures of those. The paper parameterizes its models with exactly these
// shapes — constant protocol costs, uniform network supports, and the
// bi-modal uniform mixture fitted to measured end-to-end delays (§5.1).
//
// All times are float64 milliseconds. Sampling draws from an explicit
// rng.Stream so that every simulated component owns its randomness and
// experiments stay reproducible.
package dist

import (
	"fmt"

	"ctsan/internal/rng"
)

// Dist is a sampleable delay distribution.
type Dist interface {
	// Sample draws one value using the given stream.
	Sample(r *rng.Stream) float64
	// Mean returns the distribution mean.
	Mean() float64
}

// det is a point mass. It consumes no randomness.
type det float64

// Det returns the deterministic distribution concentrated at v.
func Det(v float64) Dist { return det(v) }

func (d det) Sample(*rng.Stream) float64 { return float64(d) }
func (d det) Mean() float64              { return float64(d) }
func (d det) String() string             { return fmt.Sprintf("Det(%g)", float64(d)) }

// uniform is U[lo, hi).
type uniform struct{ lo, hi float64 }

// U returns the uniform distribution on [lo, hi). It panics if hi < lo.
func U(lo, hi float64) Dist {
	if hi < lo {
		panic(fmt.Sprintf("dist: U with hi %g < lo %g", hi, lo))
	}
	return uniform{lo, hi}
}

func (d uniform) Sample(r *rng.Stream) float64 { return r.Uniform(d.lo, d.hi) }
func (d uniform) Mean() float64                { return (d.lo + d.hi) / 2 }
func (d uniform) String() string               { return fmt.Sprintf("U[%g,%g]", d.lo, d.hi) }

// expDist is exponential with the given mean.
type expDist float64

// Exp returns the exponential distribution with the given mean. It panics
// if mean is negative; a zero mean is the point mass at 0.
func Exp(mean float64) Dist {
	if mean < 0 {
		panic(fmt.Sprintf("dist: Exp with negative mean %g", mean))
	}
	return expDist(mean)
}

func (d expDist) Sample(r *rng.Stream) float64 { return r.Exp(float64(d)) }
func (d expDist) Mean() float64                { return float64(d) }
func (d expDist) String() string               { return fmt.Sprintf("Exp(%g)", float64(d)) }

// Component is one branch of a Mixture: distribution D with probability P.
type Component struct {
	P float64
	D Dist
}

// Mixture is a finite probabilistic mixture of distributions. The zero
// value is invalid; build mixtures with NewMixture, MustMixture, or
// Bimodal.
type Mixture struct {
	comps []Component
}

// NewMixture builds a mixture from components whose probabilities must sum
// to 1 (within 1e-9) and be non-negative.
func NewMixture(comps ...Component) (Mixture, error) {
	if len(comps) == 0 {
		return Mixture{}, fmt.Errorf("dist: mixture needs at least one component")
	}
	sum := 0.0
	for _, c := range comps {
		if c.P < 0 {
			return Mixture{}, fmt.Errorf("dist: negative mixture probability %g", c.P)
		}
		if c.D == nil {
			return Mixture{}, fmt.Errorf("dist: nil mixture component")
		}
		sum += c.P
	}
	if sum < 1-1e-9 || sum > 1+1e-9 {
		return Mixture{}, fmt.Errorf("dist: mixture probabilities sum to %g, want 1", sum)
	}
	m := Mixture{comps: make([]Component, len(comps))}
	copy(m.comps, comps)
	return m, nil
}

// MustMixture is NewMixture that panics on error; for literals.
func MustMixture(comps ...Component) Mixture {
	m, err := NewMixture(comps...)
	if err != nil {
		panic(err)
	}
	return m
}

// Bimodal returns the two-component uniform mixture
// U[lo1, hi1] w.p. p1 + U[lo2, hi2] w.p. 1−p1 — the shape the paper fits
// to measured end-to-end delays (§5.1).
func Bimodal(p1, lo1, hi1, lo2, hi2 float64) Mixture {
	return MustMixture(
		Component{P: p1, D: U(lo1, hi1)},
		Component{P: 1 - p1, D: U(lo2, hi2)},
	)
}

// Sample draws the component by one uniform variate, then samples it.
func (m Mixture) Sample(r *rng.Stream) float64 { return m.pick(r).Sample(r) }

// pick draws the component: the first whose cumulative probability
// exceeds one uniform variate, the last if rounding leaves none.
func (m Mixture) pick(r *rng.Stream) Dist {
	u := r.Float64()
	acc := 0.0
	for _, c := range m.comps[:len(m.comps)-1] {
		if acc += c.P; u < acc {
			return c.D
		}
	}
	return m.comps[len(m.comps)-1].D
}

// Skip advances r exactly as d.Sample(r) would, making the same draws
// but not the transforms that turn them into a sample (an exponential's
// logarithm): what a caller that replays the draws later from a copy of
// r needs of r now.
func Skip(d Dist, r *rng.Stream) {
	switch d := d.(type) {
	case det:
	case uniform:
		r.Uint64()
	case expDist:
		if d > 0 {
			r.Uint64()
		}
	case Mixture:
		Skip(d.pick(r), r)
	default:
		d.Sample(r)
	}
}

// Mean returns the probability-weighted mean of the components.
func (m Mixture) Mean() float64 {
	var s float64
	for _, c := range m.comps {
		s += float64(c.P * c.D.Mean())
	}
	return s
}

func (m Mixture) String() string {
	s := "Mixture("
	for i, c := range m.comps {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("%v w.p. %.3g", c.D, c.P)
	}
	return s + ")"
}
