package main

import (
	"slices"

	"ctsan/internal/stats"
)

// median of a sample (NaN when empty), by the repository's one
// interpolation rule.
func median(vals []float64) float64 {
	s := slices.Clone(vals)
	slices.Sort(s)
	return stats.QuantileSorted(s, 0.5)
}
