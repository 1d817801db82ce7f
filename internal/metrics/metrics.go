// Package metrics is the streaming observation core shared by all three
// evaluation engines (SAN transient simulation, cluster emulation, and
// scenario campaigns). The paper's evaluation reports only summary
// statistics — latency percentiles, means with confidence intervals,
// wrong-suspicion rates — over thousands of consensus executions per
// campaign point, so result plumbing must not retain the raw sample set.
//
// A Digest folds observations one at a time into
//
//   - Welford running moments (mean/variance via stats.Accumulator,
//     including min/max and Student-t confidence intervals), and
//   - a quantile structure with two regimes: an exact buffer that retains
//     samples in insertion order up to a configurable cap, and a
//     deterministic KLL-style compacting sketch beyond it.
//
// Below the cap every statistic — mean, CI, and interpolated quantiles —
// is bit-identical to the historical slice-and-sort path (golden tests
// pin this), and the full ordered sample set remains available through
// Exact for figure reproduction (stats.ECDF) and differential tests.
// Beyond the cap memory is bounded by O(cap + levelCap·log(n/levelCap))
// regardless of the observation count, so million-execution campaigns
// run at O(1) retained memory per replica.
//
// # Determinism rules
//
// The repository guarantees bit-identical campaign results at any worker
// count. Digests preserve that guarantee under two rules, mirroring the
// rng.Child conventions documented in PERFORMANCE.md:
//
//  1. Per-unit digests. Work unit i (a replica, a campaign point) records
//     only its own observations, in its own deterministic order.
//  2. Serial merges in unit order. Campaign folds call Merge serially in
//     replica-index (grid) order. Merge of an exact digest replays its
//     samples one by one, so an exact-mode fold is bit-identical to
//     having recorded every sample into one digest sequentially — and
//     therefore bit-identical at 1, 2, or 8 workers. Sketch-mode merges
//     are deterministic for a given merge order (same inputs, same
//     output), which the serial fold fixes.
//
// The sketch itself contains no randomness: compaction keeps
// odd- or even-indexed survivors by a per-level alternation counter, so
// two digests fed the same observation sequence are identical, bit for
// bit, on every platform.
package metrics

import (
	"math"
	"sort"

	"ctsan/internal/stats"
)

// DefaultExactCap is the default exact-mode capacity: campaigns with at
// most this many retained samples keep every sample (in insertion order)
// and report exact, bit-stable quantiles. The value is chosen above the
// paper's largest per-point campaign (5000 executions, §5.2) so every
// paper-fidelity artifact reproduces exactly, while million-execution
// campaigns switch to the bounded sketch.
const DefaultExactCap = 8192

// defaultLevelCap is the per-level compactor capacity of the sketch.
// Rank error is O(levels/levelCap) with levels = log2(n/levelCap); 512
// keeps the p50/p90/p99 of a 1M-sample stream within a fraction of a
// percent while bounding sketch memory to ~levelCap·log2(n/levelCap)
// floats.
const defaultLevelCap = 512

// Digest is a mergeable, deterministic, constant-memory summary of a
// sample stream (latencies in milliseconds, throughout this repository).
// The zero value is an empty digest with DefaultExactCap. A Digest must
// not be copied after first use (it holds growing buffers); pass
// pointers.
//
// Recording (Add, AddAll, Merge) is single-goroutine, like the rest of
// a campaign fold. Queries (Quantile, ECDF, the moment accessors) do
// not mutate the digest, so a finished digest — e.g. one reached
// through a campaign Result — is safe for concurrent readers.
type Digest struct {
	acc stats.Accumulator
	// exactCap is the configured exact-mode capacity (0 = default).
	exactCap int
	// exact holds every sample in insertion order while in exact mode;
	// nil once spilled to the sketch.
	exact []float64
	// sk is the compacting sketch; non-nil exactly when the digest has
	// outgrown exact mode.
	sk *sketch
}

// NewDigest returns a digest whose exact mode retains up to exactCap
// samples (exactCap <= 0 selects DefaultExactCap).
func NewDigest(exactCap int) *Digest {
	return &Digest{exactCap: exactCap}
}

// cap resolves the configured exact capacity.
func (d *Digest) cap() int {
	if d.exactCap > 0 {
		return d.exactCap
	}
	return DefaultExactCap
}

// Add folds one observation into the digest.
func (d *Digest) Add(x float64) {
	d.acc.Add(x)
	if d.sk != nil {
		d.sk.add(x)
		return
	}
	d.exact = append(d.exact, x)
	if len(d.exact) > d.cap() {
		d.spill()
	}
}

// AddAll folds a slice of observations in order.
func (d *Digest) AddAll(xs []float64) {
	for _, x := range xs {
		d.Add(x)
	}
}

// spill moves the digest from exact to sketch mode, feeding the retained
// samples through the compactor in insertion order.
func (d *Digest) spill() {
	d.sk = newSketch(defaultLevelCap)
	for _, x := range d.exact {
		d.sk.add(x)
	}
	d.exact = nil
}

// Merge folds digest b into d. Campaign folds call Merge serially in
// replica-index order (rule 2 of the package determinism contract).
//
// When b is in exact mode its samples are replayed one by one, so the
// merged moments and quantiles are bit-identical to having recorded b's
// stream directly after d's. When b has spilled to its sketch, moments
// combine with the parallel Welford formula (stats.Accumulator.Merge)
// and the sketches merge level-wise; the result is deterministic for the
// given merge order but is an approximation, like any sketch-mode query.
// b is not modified.
func (d *Digest) Merge(b *Digest) {
	if b == nil || b.acc.N() == 0 {
		return
	}
	if b.sk == nil {
		for _, x := range b.exact {
			d.Add(x)
		}
		return
	}
	acc := b.acc // copy: Accumulator.Merge reads the argument only
	d.acc.Merge(&acc)
	if d.sk == nil {
		d.spill()
	}
	d.sk.merge(b.sk)
}

// N returns the number of observations recorded.
func (d *Digest) N() int { return d.acc.N() }

// Mean returns the sample mean (0 if empty).
func (d *Digest) Mean() float64 { return d.acc.Mean() }

// CI returns the half-width of the Student-t confidence interval for the
// mean at the given level (e.g. 0.90).
func (d *Digest) CI(level float64) float64 { return d.acc.CI(level) }

// Min returns the smallest observation (0 if empty).
func (d *Digest) Min() float64 { return d.acc.Min() }

// Max returns the largest observation (0 if empty).
func (d *Digest) Max() float64 { return d.acc.Max() }

// String formats the digest like an accumulator: "mean ± ci90 (n=N)".
func (d *Digest) String() string { return d.acc.String() }

// Exact returns the retained samples in insertion order, or nil once the
// digest has spilled to its sketch. The slice is the digest's own
// buffer: callers must not modify it.
func (d *Digest) Exact() []float64 { return d.exact }

// ecdfGridPoints is the resolution of the approximate ECDF
// reconstructed from a sketched digest: far finer than any figure grid
// in the repository (CDFGridSteps tops out at 60), at O(1) memory.
const ecdfGridPoints = 2048

// ECDF builds an empirical CDF of the stream. Below the exact cap it is
// constructed from the retained samples — the paper-figure reproduction
// path (Figs. 6/7, KS distances), bit-identical to the historical
// slice-built ECDF. Beyond the cap it is reconstructed from a dense
// quantile grid of the sketch: an approximation with the sketch's rank
// accuracy, so oversized campaigns (e.g. ctsan repro -scale past the
// cap) degrade gracefully instead of losing the distribution.
func (d *Digest) ECDF() *stats.ECDF {
	if d.sk == nil {
		return stats.NewECDF(d.exact)
	}
	return stats.NewECDF(d.sk.grid(ecdfGridPoints))
}

// Quantile returns the q-quantile (0 <= q <= 1). In exact mode it is
// computed by the shared stats.QuantileSorted interpolation rule over a
// sorted copy of the retained samples, bit-identical to the historical
// ECDF path; in sketch mode it is the weighted interpolated quantile of
// the compacted sample, deterministic for the observation sequence. NaN
// if the digest is empty. Quantile does not mutate the digest (it sorts
// a scratch copy), so concurrent queries on a finished digest are safe.
//
// Results are monotone in q up to floating-point rounding: the
// interpolation a·(1-f) + b·f (kept exactly as ECDF computes it, for
// bit-compatibility) can wiggle by an ulp when a == b, so callers must
// not assume strict ordering between quantiles closer than one ulp.
func (d *Digest) Quantile(q float64) float64 {
	if d.acc.N() == 0 {
		return math.NaN()
	}
	if d.sk != nil {
		return d.sk.quantile(q)
	}
	sorted := append([]float64(nil), d.exact...)
	sort.Float64s(sorted)
	return stats.QuantileSorted(sorted, q)
}

// Quantiles answers several quantile queries over one sorted snapshot —
// the per-point summary path (p50/p90/p99) pays one sort instead of
// one per query. Each result is bit-identical to the corresponding
// Quantile call.
func (d *Digest) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if d.acc.N() == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	if d.sk != nil {
		for i, q := range qs {
			out[i] = d.sk.quantile(q)
		}
		return out
	}
	sorted := append([]float64(nil), d.exact...)
	sort.Float64s(sorted)
	for i, q := range qs {
		out[i] = stats.QuantileSorted(sorted, q)
	}
	return out
}

// sketch is a deterministic KLL-style compactor: level h holds samples
// of weight 2^h in a buffer of at most levelCap items. A full buffer is
// sorted and halved — survivors (alternately the even- and odd-indexed
// items, tracked per level by a compaction counter instead of the
// classical coin flip) move up one level at double weight. All
// operations are pure functions of the input sequence.
type sketch struct {
	levelCap    int
	levels      [][]float64
	compactions []uint64
}

func newSketch(levelCap int) *sketch {
	return &sketch{
		levelCap:    levelCap,
		levels:      [][]float64{make([]float64, 0, levelCap)},
		compactions: []uint64{0},
	}
}

// add records one weight-1 sample.
func (s *sketch) add(x float64) { s.addAt(0, x) }

// addAt appends a sample at level h, cascading compactions upward.
func (s *sketch) addAt(h int, x float64) {
	for len(s.levels) <= h {
		s.levels = append(s.levels, make([]float64, 0, s.levelCap))
		s.compactions = append(s.compactions, 0)
	}
	s.levels[h] = append(s.levels[h], x)
	for ; h < len(s.levels) && len(s.levels[h]) >= s.levelCap; h++ {
		s.compact(h)
	}
}

// compact halves level h into level h+1: sort, keep every other item
// starting at the alternating offset, double the weight.
func (s *sketch) compact(h int) {
	buf := s.levels[h]
	sort.Float64s(buf)
	off := int(s.compactions[h] & 1)
	s.compactions[h]++
	if len(s.levels) <= h+1 {
		s.levels = append(s.levels, make([]float64, 0, s.levelCap))
		s.compactions = append(s.compactions, 0)
	}
	for i := off; i < len(buf); i += 2 {
		s.levels[h+1] = append(s.levels[h+1], buf[i])
	}
	s.levels[h] = buf[:0]
}

// merge folds sketch o into s level-wise; o is not modified. The result
// depends on the merge order (sketch compaction is not associative), so
// campaign folds merge serially in replica-index order.
func (s *sketch) merge(o *sketch) {
	for h, items := range o.levels {
		for _, x := range items {
			s.addAt(h, x)
		}
	}
}

// totalWeight is the summed weight of all retained items.
func (s *sketch) totalWeight() uint64 {
	var w uint64
	for h, lvl := range s.levels {
		w += uint64(len(lvl)) << uint(h)
	}
	return w
}

// grid returns m values sampled at evenly spaced expanded ranks of the
// sketch, in nondecreasing order — a bounded-size stand-in for the full
// sorted sample, used to reconstruct an approximate ECDF.
func (s *sketch) grid(m int) []float64 {
	type wv struct {
		v float64
		w uint64
	}
	var items []wv
	for h, lvl := range s.levels {
		for _, v := range lvl {
			items = append(items, wv{v: v, w: 1 << uint(h)})
		}
	}
	if len(items) == 0 || m < 1 {
		return nil
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	w := s.totalWeight()
	if uint64(m) > w {
		m = int(w)
	}
	out := make([]float64, 0, m)
	idx, cum := 0, items[0].w
	for i := 0; i < m; i++ {
		var rank uint64
		if m > 1 {
			rank = uint64(float64(float64(i) / float64(m-1) * float64(w-1)))
		}
		for rank >= cum && idx+1 < len(items) {
			idx++
			cum += items[idx].w
		}
		out = append(out, items[idx].v)
	}
	return out
}

// quantile answers the q-quantile by expanding weights: item (v, 2^h)
// stands for 2^h copies of v, and the query interpolates between the
// values at expanded ranks floor(pos) and floor(pos)+1 with
// pos = q·(W-1), matching the exact-mode interpolation rule at weight
// granularity.
func (s *sketch) quantile(q float64) float64 {
	type wv struct {
		v float64
		w uint64
	}
	var items []wv
	for h, lvl := range s.levels {
		for _, v := range lvl {
			items = append(items, wv{v: v, w: 1 << uint(h)})
		}
	}
	if len(items) == 0 {
		return math.NaN()
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	w := s.totalWeight()
	if q <= 0 {
		return items[0].v
	}
	if q >= 1 {
		return items[len(items)-1].v
	}
	pos := float64(q * float64(w-1))
	lo := uint64(pos)
	frac := pos - float64(lo)
	at := func(rank uint64) float64 {
		var cum uint64
		for _, it := range items {
			cum += it.w
			if rank < cum {
				return it.v
			}
		}
		return items[len(items)-1].v
	}
	va := at(lo)
	if frac == 0 || lo+1 >= w {
		return va
	}
	vb := at(lo + 1)
	return float64(va*(1-frac)) + float64(vb*frac)
}
