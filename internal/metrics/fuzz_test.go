package metrics

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzDigestQuantile feeds adversarial sample orders and values into a
// small-cap digest (so the fuzzer crosses the exact→sketch boundary
// cheaply) and checks the query invariants that every consumer relies
// on: results inside [Min, Max], monotone in q, NaN-free for non-empty
// digests, and bit-identical to the slice path while exact.
func FuzzDigestQuantile(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(make([]byte, 4096)) // long run of identical samples
	ramp := make([]byte, 0, 1024)
	for i := 0; i < 256; i++ {
		ramp = append(ramp, byte(i), byte(255-i), byte(i/2), byte(i*7))
	}
	f.Add(ramp)

	f.Fuzz(func(t *testing.T, data []byte) {
		const cap = 64
		d := NewDigest(cap)
		var raw []float64
		for len(data) >= 2 {
			// Two bytes per sample keeps value diversity while letting the
			// fuzzer reach long streams; scale into a latency-like range.
			v := float64(binary.LittleEndian.Uint16(data)) / 256.0
			data = data[2:]
			d.Add(v)
			raw = append(raw, v)
		}
		if len(raw) == 0 {
			if !math.IsNaN(d.Quantile(0.5)) {
				t.Fatal("empty digest must answer NaN")
			}
			return
		}
		if d.N() != len(raw) {
			t.Fatalf("digest counted %d of %d samples", d.N(), len(raw))
		}
		qs := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
		prev := math.Inf(-1)
		for _, q := range qs {
			v := d.Quantile(q)
			if math.IsNaN(v) {
				t.Fatalf("q=%g: NaN on non-empty digest", q)
			}
			if v < d.Min() || v > d.Max() {
				t.Fatalf("q=%g: %v outside [%v, %v]", q, v, d.Min(), d.Max())
			}
			// Monotone up to floating-point rounding: the ECDF-compatible
			// interpolation may wiggle by an ulp around ties.
			if v < prev && prev-v > 1e-9*math.Max(1, math.Abs(prev)) {
				t.Fatalf("q=%g: quantiles not monotone (%v < %v)", q, v, prev)
			}
			prev = v
		}
		if len(raw) <= cap {
			if !d.IsExact() {
				t.Fatalf("spilled at %d samples with cap %d", len(raw), cap)
			}
			for _, q := range qs {
				if d.Quantile(q) != sliceQuantile(raw, q) {
					t.Fatalf("q=%g: exact-mode digest %v != slice path %v", q, d.Quantile(q), sliceQuantile(raw, q))
				}
			}
		} else if d.IsExact() {
			t.Fatalf("still exact at %d samples with cap %d", len(raw), cap)
		}
	})
}
