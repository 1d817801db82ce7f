package metrics

import (
	"math"
	"slices"
	"sort"
	"testing"

	"ctsan/internal/rng"
	"ctsan/internal/stats"
)

// sliceQuantile is the historical slice path's q-quantile: sort a copy
// of the sample and interpolate.
func sliceQuantile(xs []float64, q float64) float64 {
	return stats.QuantileSorted(slices.Sorted(slices.Values(xs)), q)
}

// quantileGrid is the set of quantile probes used throughout the tests,
// covering the report percentiles (p50/p90/p99) plus the extremes.
var quantileGrid = []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}

// latencyStream draws a plausible latency-shaped sample stream: a
// uniform body with an exponential tail, like the paper's bi-modal
// end-to-end delays.
func latencyStream(seed uint64, n int) []float64 {
	r := rng.New(seed)
	xs := make([]float64, n)
	for i := range xs {
		if r.Float64() < 0.8 {
			xs[i] = r.Uniform(0.3, 1.2)
		} else {
			xs[i] = 1.2 + r.Exp(2.5)
		}
	}
	return xs
}

// TestExactModeMatchesSlicePath pins the refactor's bit-compatibility
// contract: below the cap, every digest statistic equals the historical
// slice path (sequential Accumulator + stats.ECDF) bit for bit.
func TestExactModeMatchesSlicePath(t *testing.T) {
	xs := latencyStream(1, 3000)
	var d Digest
	var acc stats.Accumulator
	for _, x := range xs {
		d.Add(x)
		acc.Add(x)
	}
	if !d.IsExact() {
		t.Fatalf("3000 samples spilled below DefaultExactCap=%d", DefaultExactCap)
	}
	if d.N() != acc.N() || d.Mean() != acc.Mean() || d.Var() != acc.Var() ||
		d.Min() != acc.Min() || d.Max() != acc.Max() || d.CI(0.90) != acc.CI(0.90) {
		t.Fatalf("digest moments diverge from sequential accumulator")
	}
	for _, q := range quantileGrid {
		if got, want := d.Quantile(q), sliceQuantile(xs, q); got != want {
			t.Fatalf("q=%g: digest %v, slice path %v (must be bit-identical)", q, got, want)
		}
	}
	exact := d.Exact()
	if len(exact) != len(xs) {
		t.Fatalf("exact buffer lost samples: %d vs %d", len(exact), len(xs))
	}
	for i := range xs {
		if exact[i] != xs[i] {
			t.Fatalf("exact buffer reordered at %d", i)
		}
	}
	if d.ECDF() == nil || stats.KSDistance(d.ECDF(), stats.NewECDF(xs)) != 0 {
		t.Fatal("exact-mode ECDF differs from the sample's")
	}
}

// TestMergeReplaysExactDigests: merging per-replica exact digests
// serially in replica order must be bit-identical to recording the
// concatenated stream into a single digest — the property that keeps
// campaign folds (and the run_json.golden values) unchanged by the
// streaming refactor.
func TestMergeReplaysExactDigests(t *testing.T) {
	xs := latencyStream(2, 4000)
	var whole Digest
	whole.AddAll(xs)

	var merged Digest
	for lo := 0; lo < len(xs); lo += 250 {
		hi := lo + 250
		if hi > len(xs) {
			hi = len(xs)
		}
		var part Digest
		part.AddAll(xs[lo:hi])
		merged.Merge(&part)
	}
	if merged.N() != whole.N() || merged.Mean() != whole.Mean() ||
		merged.Var() != whole.Var() || merged.CI(0.90) != whole.CI(0.90) {
		t.Fatal("merged moments diverge from single-stream digest")
	}
	for _, q := range quantileGrid {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("q=%g: merged %v, whole %v", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
}

// TestMergeAssociativityExact: exact-mode merging is associative bit for
// bit — (a⊕b)⊕c and a⊕(b⊕c) replay the same sample sequence.
func TestMergeAssociativityExact(t *testing.T) {
	xs := latencyStream(3, 900)
	mk := func(lo, hi int) *Digest {
		d := &Digest{}
		d.AddAll(xs[lo:hi])
		return d
	}
	left := mk(0, 300)
	left.Merge(mk(300, 600))
	left.Merge(mk(600, 900))

	bc := mk(300, 600)
	bc.Merge(mk(600, 900))
	right := mk(0, 300)
	right.Merge(bc)

	if left.Mean() != right.Mean() || left.Var() != right.Var() || left.N() != right.N() {
		t.Fatal("exact merge not associative in the moments")
	}
	for _, q := range quantileGrid {
		if left.Quantile(q) != right.Quantile(q) {
			t.Fatalf("q=%g: exact merge not associative in the quantiles", q)
		}
	}
}

// TestExactToSketchCrossover pins the regime switch: at cap+1 samples
// the digest drops the exact buffer, keeps exact moments, and answers
// approximate quantiles.
func TestExactToSketchCrossover(t *testing.T) {
	const cap = 100
	xs := latencyStream(4, cap+1)
	d := NewDigest(cap)
	var acc stats.Accumulator
	d.AddAll(xs[:cap])
	if !d.IsExact() {
		t.Fatalf("digest spilled at %d samples with cap %d", cap, cap)
	}
	for _, x := range xs {
		acc.Add(x)
	}
	d.Add(xs[cap])
	if d.IsExact() {
		t.Fatal("digest still exact beyond its cap")
	}
	if d.Exact() != nil {
		t.Fatal("sketched digest still exposes an exact buffer")
	}
	// The ECDF degrades to a sketch-backed approximation, never nil:
	// figure code must not crash when a campaign outgrows the cap.
	if e := d.ECDF(); e == nil || e.At(math.Inf(1)) != 1 {
		t.Fatal("sketched digest lost its ECDF")
	} else if p := e.At(d.Quantile(0.5)); math.Abs(p-0.5) > 0.05 {
		t.Fatalf("approximate ECDF puts the digest median %v at rank %v", d.Quantile(0.5), p)
	}
	// Moments stream through the accumulator and stay exact in both
	// regimes.
	if d.N() != acc.N() || d.Mean() != acc.Mean() || d.Var() != acc.Var() ||
		d.Min() != acc.Min() || d.Max() != acc.Max() {
		t.Fatal("moments perturbed by the sketch crossover")
	}
	assertQuantilesClose(t, d, xs, 0.05)
}

// TestSketchAccuracy bounds the sketch's rank error on a large stream:
// every reported quantile must sit within 2% of the requested rank.
func TestSketchAccuracy(t *testing.T) {
	xs := latencyStream(5, 200_000)
	var d Digest
	d.AddAll(xs)
	if d.IsExact() {
		t.Fatal("200k samples did not spill")
	}
	assertQuantilesClose(t, &d, xs, 0.02)
}

// TestSketchAdversarialOrders feeds orderings that defeat naive
// reservoir or windowed schemes — sorted, reverse-sorted, organ-pipe,
// and interleaved-extremes — and requires bounded rank error on each.
func TestSketchAdversarialOrders(t *testing.T) {
	base := latencyStream(6, 60_000)
	orders := map[string]func([]float64) []float64{
		"sorted": func(xs []float64) []float64 {
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			return s
		},
		"reverse": func(xs []float64) []float64 {
			s := append([]float64(nil), xs...)
			sort.Sort(sort.Reverse(sort.Float64Slice(s)))
			return s
		},
		"organ-pipe": func(xs []float64) []float64 {
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			out := make([]float64, 0, len(s))
			for i, j := 0, len(s)-1; i <= j; i, j = i+1, j-1 {
				out = append(out, s[i])
				if i != j {
					out = append(out, s[j])
				}
			}
			return out
		},
	}
	for name, reorder := range orders {
		xs := reorder(base)
		var d Digest
		d.AddAll(xs)
		t.Run(name, func(t *testing.T) {
			assertQuantilesClose(t, &d, xs, 0.05)
		})
	}
}

// TestSketchMergeDeterministic: the same per-replica digests merged in
// the same order produce bit-identical sketch quantiles — the property
// the serial grid-order fold relies on beyond the exact cap.
func TestSketchMergeDeterministic(t *testing.T) {
	parts := make([]*Digest, 8)
	for i := range parts {
		parts[i] = NewDigest(500)
		parts[i].AddAll(latencyStream(uint64(10+i), 5_000))
	}
	fold := func() *Digest {
		d := NewDigest(500)
		for _, p := range parts {
			d.Merge(p)
		}
		return d
	}
	a, b := fold(), fold()
	if a.IsExact() {
		t.Fatal("fold stayed exact; the test needs the sketch regime")
	}
	if a.N() != b.N() || a.Mean() != b.Mean() || a.Var() != b.Var() {
		t.Fatal("sketch-mode merge nondeterministic in the moments")
	}
	for _, q := range quantileGrid {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q=%g: sketch-mode merge nondeterministic", q)
		}
	}
	// And the merged approximation still tracks the true distribution.
	var all []float64
	for i := range parts {
		all = append(all, latencyStream(uint64(10+i), 5_000)...)
	}
	assertQuantilesClose(t, a, all, 0.05)
}

// TestQuantilesMatchesQuantile pins the batch path (one sort, several
// queries) bit-identical to individual Quantile calls, in both regimes.
func TestQuantilesMatchesQuantile(t *testing.T) {
	for _, n := range []int{500, 30_000} {
		var d Digest
		d.AddAll(latencyStream(8, n))
		batch := d.Quantiles(quantileGrid...)
		for i, q := range quantileGrid {
			if single := d.Quantile(q); batch[i] != single {
				t.Fatalf("n=%d q=%g: batch %v != single %v", n, q, batch[i], single)
			}
		}
	}
	var empty Digest
	for _, v := range empty.Quantiles(0.5, 0.9) {
		if !math.IsNaN(v) {
			t.Fatal("empty digest batch quantiles must be NaN")
		}
	}
}

// TestRetainedBytesBounded: a million-sample stream must retain orders
// of magnitude less than the 8 MB the slice path would hold.
func TestRetainedBytesBounded(t *testing.T) {
	var d Digest
	r := rng.New(7)
	const n = 1_000_000
	for i := 0; i < n; i++ {
		d.Add(r.Exp(1))
	}
	sliceBytes := 8 * n
	if got := d.RetainedBytes(); got*10 > sliceBytes {
		t.Fatalf("digest retains %d bytes, not 10x under the %d-byte slice path", got, sliceBytes)
	}
	if d.N() != n {
		t.Fatalf("lost observations: %d", d.N())
	}
}

// TestEmptyAndSingle covers the degenerate digests every sink must
// tolerate (a point whose every execution aborted).
func TestEmptyAndSingle(t *testing.T) {
	var d Digest
	if !math.IsNaN(d.Quantile(0.5)) {
		t.Fatal("empty digest quantile not NaN")
	}
	if d.N() != 0 || d.Mean() != 0 {
		t.Fatal("empty digest moments")
	}
	d.Add(3.5)
	for _, q := range quantileGrid {
		if d.Quantile(q) != 3.5 {
			t.Fatalf("single-sample quantile q=%g: %v", q, d.Quantile(q))
		}
	}
}

// assertQuantilesClose checks every probe quantile against the true
// sorted sample, requiring rank error within eps·n (and exact endpoint
// behavior inside the observed range).
func assertQuantilesClose(t *testing.T, d *Digest, xs []float64, eps float64) {
	t.Helper()
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	for _, q := range quantileGrid {
		got := d.Quantile(q)
		if got < sorted[0] || got > sorted[n-1] {
			t.Fatalf("q=%g: %v outside the sample range [%v, %v]", q, got, sorted[0], sorted[n-1])
		}
		// Rank of the estimate in the true sample.
		rank := sort.SearchFloat64s(sorted, got)
		want := q * float64(n-1)
		if diff := math.Abs(float64(rank) - want); diff > eps*float64(n)+1 {
			t.Errorf("q=%g: estimate %v has rank %d, want %0.f ± %0.f", q, got, rank, want, eps*float64(n))
		}
	}
	// Quantiles must be monotone in q (up to floating-point rounding of
	// the ECDF-compatible interpolation around ties).
	prev := math.Inf(-1)
	for _, q := range quantileGrid {
		v := d.Quantile(q)
		if v < prev && prev-v > 1e-9*math.Max(1, math.Abs(prev)) {
			t.Fatalf("quantiles not monotone at q=%g: %v < %v", q, v, prev)
		}
		prev = v
	}
}

// Var returns the unbiased sample variance.
func (d *Digest) Var() float64 { return d.acc.Var() }

// IsExact reports whether the digest still retains every sample, i.e.
// quantiles are exact and Exact returns the full ordered stream.
func (d *Digest) IsExact() bool { return d.sk == nil }

// RetainedBytes reports the digest's retained sample storage in bytes
// (exact buffer and sketch levels). It is the quantity
// BenchmarkCampaignMemory compares against the len(samples)·8 of the
// historical slice path.
func (d *Digest) RetainedBytes() int {
	b := 8 * cap(d.exact)
	if d.sk != nil {
		for _, lvl := range d.sk.levels {
			b += 8 * cap(lvl)
		}
	}
	return b
}
