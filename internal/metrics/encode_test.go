package metrics

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"ctsan/internal/rng"
)

// wireDigests builds digests covering both regimes of the wire format:
// empty, exact (including exactly-at-cap), and sketch mode with several
// levels, plus adversarial values (negatives, infinities, denormals).
func wireDigests() map[string]*Digest {
	out := map[string]*Digest{}
	mk := func(name string, cap, n int, seed uint64) {
		d := NewDigest(cap)
		r := rng.New(seed)
		for i := 0; i < n; i++ {
			d.Add(r.Exp(10) - 5)
		}
		out[name] = d
	}
	out["empty"] = NewDigest(0)
	mk("exact-small", 0, 100, 1)
	mk("exact-at-cap", 64, 64, 2)
	mk("sketch-just-spilled", 64, 65, 3)
	mk("sketch-deep", 64, 50_000, 4)
	adv := NewDigest(16)
	for _, x := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 5e-324, -1e300, 1e300} {
		adv.Add(x)
	}
	out["adversarial-values"] = adv
	return out
}

// digestEqual compares complete digest state, bit for bit.
func digestEqual(a, b *Digest) bool {
	an, amean, am2, amin, amax := a.acc.State()
	bn, bmean, bm2, bmin, bmax := b.acc.State()
	if an != bn ||
		math.Float64bits(amean) != math.Float64bits(bmean) ||
		math.Float64bits(am2) != math.Float64bits(bm2) ||
		math.Float64bits(amin) != math.Float64bits(bmin) ||
		math.Float64bits(amax) != math.Float64bits(bmax) {
		return false
	}
	if a.exactCap != b.exactCap || len(a.exact) != len(b.exact) {
		return false
	}
	for i := range a.exact {
		if math.Float64bits(a.exact[i]) != math.Float64bits(b.exact[i]) {
			return false
		}
	}
	if (a.sk == nil) != (b.sk == nil) {
		return false
	}
	if a.sk != nil {
		if a.sk.levelCap != b.sk.levelCap || !reflect.DeepEqual(a.sk.compactions, b.sk.compactions) {
			return false
		}
		if len(a.sk.levels) != len(b.sk.levels) {
			return false
		}
		for h := range a.sk.levels {
			if len(a.sk.levels[h]) != len(b.sk.levels[h]) {
				return false
			}
			for i := range a.sk.levels[h] {
				if math.Float64bits(a.sk.levels[h][i]) != math.Float64bits(b.sk.levels[h][i]) {
					return false
				}
			}
		}
	}
	return true
}

func TestDigestBinaryRoundTrip(t *testing.T) {
	for name, d := range wireDigests() {
		buf, err := d.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var got Digest
		if err := got.UnmarshalBinary(buf); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !digestEqual(d, &got) {
			t.Errorf("%s: binary round trip changed the digest", name)
		}
		// The canonical form is stable: re-encoding the restored digest
		// reproduces the original bytes.
		buf2, err := got.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", name, err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Errorf("%s: re-encoding is not byte-stable", name)
		}
	}
}

// TestDigestWireMergeMatchesInMemory pins the property the whole sharded
// campaign layer rests on: folding serialized digests shard by shard is
// bit-identical to folding the live digests in the same order — in exact
// mode, in sketch mode, and across the spill boundary.
func TestDigestWireMergeMatchesInMemory(t *testing.T) {
	cases := []struct {
		name       string
		cap        int
		perDigest  int
		numDigests int
	}{
		{"exact", 0, 50, 8},
		{"spill-during-merge", 64, 20, 8},
		{"sketch", 32, 500, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parts := make([]*Digest, tc.numDigests)
			r := rng.New(99)
			for i := range parts {
				parts[i] = NewDigest(tc.cap)
				for j := 0; j < tc.perDigest; j++ {
					parts[i].Add(r.Exp(3))
				}
			}
			mem := NewDigest(tc.cap)
			wire := NewDigest(tc.cap)
			for _, p := range parts {
				mem.Merge(p)
				buf, err := p.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				var decoded Digest
				if err := decoded.UnmarshalBinary(buf); err != nil {
					t.Fatal(err)
				}
				wire.Merge(&decoded)
			}
			if !digestEqual(mem, wire) {
				t.Fatal("merging deserialized digests diverged from the in-memory merge")
			}
			for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
				a, b := mem.Quantile(q), wire.Quantile(q)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("q=%g: in-memory %v vs wire %v", q, a, b)
				}
			}
		})
	}
}

// TestDigestDecodeRejectsTruncation: the binary layout has no optional
// tail, so every strict prefix of a valid encoding must fail cleanly.
func TestDigestDecodeRejectsTruncation(t *testing.T) {
	for name, d := range wireDigests() {
		buf, err := d.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(buf); cut++ {
			var got Digest
			if err := got.UnmarshalBinary(buf[:cut]); err == nil {
				t.Fatalf("%s: truncation to %d of %d bytes decoded successfully", name, cut, len(buf))
			}
		}
		var got Digest
		if err := got.UnmarshalBinary(append(append([]byte(nil), buf...), 0)); err == nil {
			t.Fatalf("%s: trailing garbage accepted", name)
		}
	}
}

func TestDigestDecodeRejectsStructuralCorruption(t *testing.T) {
	d := wireDigests()["sketch-deep"]
	valid, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func(b []byte)) {
		b := append([]byte(nil), valid...)
		mutate(b)
		var got Digest
		if err := got.UnmarshalBinary(b); err == nil {
			t.Errorf("%s: corrupted encoding accepted", name)
		}
	}
	corrupt("bad magic", func(b []byte) { b[0] = 'X' })
	corrupt("future version", func(b []byte) { b[4] = 99 })
	corrupt("unknown flags", func(b []byte) { b[5] |= 0x80 })
	corrupt("absurd exact cap", func(b []byte) {
		for i := 6; i < 14; i++ {
			b[i] = 0xff
		}
	})
	corrupt("absurd sample count", func(b []byte) {
		for i := 14; i < 22; i++ {
			b[i] = 0xff
		}
	})
}

func TestDigestUsableAfterDecode(t *testing.T) {
	// A restored digest is live, not a snapshot: Add and Merge keep
	// working, bit-identical to the never-serialized twin.
	r1, r2 := rng.New(7), rng.New(7)
	mem, wire := NewDigest(32), NewDigest(32)
	for i := 0; i < 40; i++ {
		mem.Add(r1.Exp(2))
	}
	for i := 0; i < 40; i++ {
		wire.Add(r2.Exp(2))
	}
	buf, err := wire.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Digest
	if err := restored.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		x := r1.Exp(5)
		mem.Add(x)
		restored.Add(x)
	}
	if !digestEqual(mem, &restored) {
		t.Fatal("digest diverged from its never-serialized twin after continued use")
	}
}

// FuzzDigestUnmarshalBinary hammers the decoder with corrupted bytes: it
// must never panic, and anything it accepts must re-encode to exactly
// the bytes it was given (the canonical-form property).
func FuzzDigestUnmarshalBinary(f *testing.F) {
	for _, d := range wireDigests() {
		buf, err := d.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		if len(buf) > 30 {
			f.Add(buf[:30])
			flipped := append([]byte(nil), buf...)
			flipped[17] ^= 0x40
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var d Digest
		if err := d.UnmarshalBinary(data); err != nil {
			return
		}
		out, err := d.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted input failed to re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted encoding is not canonical:\n in: %x\nout: %x", data, out)
		}
	})
}
