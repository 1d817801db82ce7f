// Package fit estimates the bi-modal uniform mixture the paper uses to
// approximate measured end-to-end message delays (§5.1): "These
// distributions were approximated by using uniform distributions in a
// bi-modal fashion, thus giving, in the case of unicast messages:
// U[0.1, 0.13] (with a probability of 0.8) and U[0.145, 0.35] (with a
// probability of 0.2)."
//
// The fitted mixture, shifted by −2·t_send, parameterizes the network
// activity of the SAN model (§5.1).
package fit

import (
	"fmt"
	"math"
	"sort"

	"ctsan/internal/dist"
)

// Bimodal is a two-component uniform mixture fit.
type Bimodal struct {
	P1       float64 // probability of the first (lower) mode
	Lo1, Hi1 float64
	Lo2, Hi2 float64
}

// Dist returns the fitted mixture as a sampleable distribution.
func (b Bimodal) Dist() dist.Mixture {
	return dist.Bimodal(b.P1, b.Lo1, b.Hi1, b.Lo2, b.Hi2)
}

// Shift returns the fit translated by -offset, clamped at floor. It is
// used to derive the network occupancy t_net = end-to-end − 2·t_send.
func (b Bimodal) Shift(offset, floor float64) Bimodal {
	clamp := func(v float64) float64 {
		if v-offset < floor {
			return floor
		}
		return v - offset
	}
	out := Bimodal{P1: b.P1, Lo1: clamp(b.Lo1), Hi1: clamp(b.Hi1), Lo2: clamp(b.Lo2), Hi2: clamp(b.Hi2)}
	// Keep the uniform supports non-degenerate.
	const eps = 1e-6
	if out.Hi1 <= out.Lo1 {
		out.Hi1 = out.Lo1 + eps
	}
	if out.Hi2 <= out.Lo2 {
		out.Hi2 = out.Lo2 + eps
	}
	return out
}

func (b Bimodal) String() string {
	return fmt.Sprintf("U[%.3g,%.3g] w.p. %.2f + U[%.3g,%.3g] w.p. %.2f",
		b.Lo1, b.Hi1, b.P1, b.Lo2, b.Hi2, 1-b.P1)
}

// FitBimodal fits a two-component uniform mixture to the samples. For each
// candidate split of the sorted sample it builds the mixture implied by
// the two clusters (trimmed supports) and keeps the split whose mixture
// CDF is closest (sup-norm) to the empirical CDF — the quantity the
// paper's by-eye fit of Fig. 6 optimizes. It needs at least 8 samples.
func FitBimodal(samples []float64) (Bimodal, error) {
	if len(samples) < 8 {
		return Bimodal{}, fmt.Errorf("fit: need at least 8 samples, got %d", len(samples))
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	n := len(s)

	candidate := func(k int) Bimodal {
		lo, hi := s[:k], s[k:]
		trim := func(c []float64) (float64, float64) {
			// Trim 0.5% on each side so stragglers don't stretch the
			// uniform supports.
			t := len(c) / 200
			return c[t], c[len(c)-1-t]
		}
		l1, h1 := trim(lo)
		l2, h2 := trim(hi)
		if h1 <= l1 {
			h1 = l1 + 1e-9
		}
		if h2 <= l2 {
			h2 = l2 + 1e-9
		}
		return Bimodal{P1: float64(k) / float64(n), Lo1: l1, Hi1: h1, Lo2: l2, Hi2: h2}
	}
	// Sup-norm distance between the candidate mixture CDF and the ECDF,
	// evaluated at a subsample of the order statistics.
	dist := func(b Bimodal) float64 {
		ucdf := func(x, lo, hi float64) float64 {
			switch {
			case x <= lo:
				return 0
			case x >= hi:
				return 1
			default:
				return (x - lo) / (hi - lo)
			}
		}
		worst := 0.0
		step := n / 256
		if step < 1 {
			step = 1
		}
		for i := 0; i < n; i += step {
			x := s[i]
			model := b.P1*ucdf(x, b.Lo1, b.Hi1) + (1-b.P1)*ucdf(x, b.Lo2, b.Hi2)
			emp := float64(i+1) / float64(n)
			if d := math.Abs(model - emp); d > worst {
				worst = d
			}
		}
		return worst
	}
	best := candidate(n / 2)
	bestD := dist(best)
	consider := func(k int) {
		if k < 4 || k > n-4 {
			return
		}
		b := candidate(k)
		if d := dist(b); d < bestD {
			best, bestD = b, d
		}
	}
	// Candidate splits, two families. A quantile grid 2%..98% covers
	// overlapping modes, but a grid point that misses a sharp cluster
	// boundary by more than the 0.5% trim leaks stragglers into the wrong
	// mode and stretches its uniform support across the gap — so the exact
	// positions of the largest inter-sample gaps are offered as candidates
	// too, which for well-separated modes contain the true boundary.
	type gapSplit struct {
		gap float64
		k   int
	}
	gaps := make([]gapSplit, 0, n-1)
	for k := 1; k < n; k++ {
		gaps = append(gaps, gapSplit{gap: s[k] - s[k-1], k: k})
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i].gap > gaps[j].gap })
	for _, g := range gaps[:min(64, len(gaps))] {
		consider(g.k)
	}
	lo, hi := n/50, n*98/100
	step := (hi - lo) / 150
	if step < 1 {
		step = 1
	}
	for k := lo; k <= hi; k += step {
		consider(k)
	}
	return best, nil
}
