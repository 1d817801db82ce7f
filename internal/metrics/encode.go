package metrics

// Wire format for Digest. A crash-safe sharded campaign (campaign shard
// records, internal/checkpoint) must move digests across process
// boundaries without losing the repository's bit-identical determinism
// guarantee, so serialization is exact: every float64 travels as its
// IEEE-754 bit pattern and the exact buffer keeps its insertion order. A
// digest restored from the encoding is indistinguishable from the
// original — Merge, Add, Quantile, and a re-serialization all produce
// identical bits — which property tests in encode_test.go pin.
//
// The encoding is versioned. Version bumps are deliberate breaks:
// decoding rejects unknown versions instead of guessing.

import (
	"encoding/binary"
	"fmt"
	"math"

	"ctsan/internal/stats"
)

// digestMagic starts every binary digest; it catches "this is not a
// digest at all" before any length is trusted.
const digestMagic = "CTDG"

// DigestWireVersion is the current serialization version.
const DigestWireVersion = 1

// MarshalBinary encodes the digest's complete state — configured cap,
// moments, the exact buffer in insertion order, and every sketch level
// with its compaction counter — in a fixed little-endian layout:
//
//	"CTDG" | u8 version | u8 flags (bit0: sketch present)
//	u64 exactCap
//	u64 n | f64 mean | f64 m2 | f64 min | f64 max     (accumulator)
//	u64 len(exact) | f64 ...                          (exact buffer)
//	[sketch] u64 levelCap | u64 levels
//	         per level: u64 compactions | u64 len | f64 ...
//
// It never fails; the error return satisfies encoding.BinaryMarshaler.
func (d *Digest) MarshalBinary() ([]byte, error) {
	size := 4 + 2 + 8 + 5*8 + 8 + 8*len(d.exact)
	if d.sk != nil {
		size += 2 * 8
		for _, lvl := range d.sk.levels {
			size += 2*8 + 8*len(lvl)
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, digestMagic...)
	flags := byte(0)
	if d.sk != nil {
		flags |= 1
	}
	buf = append(buf, DigestWireVersion, flags)
	buf = appendU64(buf, uint64(d.exactCap))
	n, mean, m2, mn, mx := d.acc.State()
	buf = appendU64(buf, uint64(n))
	buf = appendF64(buf, mean)
	buf = appendF64(buf, m2)
	buf = appendF64(buf, mn)
	buf = appendF64(buf, mx)
	buf = appendU64(buf, uint64(len(d.exact)))
	for _, x := range d.exact {
		buf = appendF64(buf, x)
	}
	if d.sk != nil {
		buf = appendU64(buf, uint64(d.sk.levelCap))
		buf = appendU64(buf, uint64(len(d.sk.levels)))
		for h, lvl := range d.sk.levels {
			buf = appendU64(buf, d.sk.compactions[h])
			buf = appendU64(buf, uint64(len(lvl)))
			for _, x := range lvl {
				buf = appendF64(buf, x)
			}
		}
	}
	return buf, nil
}

// UnmarshalBinary decodes a MarshalBinary encoding into d, replacing its
// state. Every structural claim is validated against the remaining input
// before any allocation sized from it, so truncated or bit-flipped input
// fails with a descriptive error instead of panicking or ballooning
// memory (the fuzz harness leans on this).
func (d *Digest) UnmarshalBinary(data []byte) error {
	r := wireReader{buf: data}
	if magic := r.bytes(4); string(magic) != digestMagic {
		return fmt.Errorf("metrics: not a digest (bad magic)")
	}
	version := r.u8()
	if version != DigestWireVersion {
		return fmt.Errorf("metrics: unsupported digest wire version %d", version)
	}
	flags := r.u8()
	if flags&^1 != 0 {
		return fmt.Errorf("metrics: unknown digest flags %#x", flags)
	}
	exactCap := r.u64()
	if exactCap > math.MaxInt32 {
		return fmt.Errorf("metrics: implausible exact cap %d", exactCap)
	}
	// n becomes an int below: the bound is MaxInt/2, not MaxInt64/2, so a
	// 32-bit build refuses a count it would truncate (2^52+7 would decode
	// as 7) instead of accepting an encoding it could never produce.
	n := r.u64()
	if n > math.MaxInt/2 {
		return fmt.Errorf("metrics: implausible observation count %d", n)
	}
	mean, m2, mn, mx := r.f64(), r.f64(), r.f64(), r.f64()
	exact, err := r.f64Slice("exact buffer")
	if err != nil {
		return err
	}
	var sk *sketch
	if flags&1 != 0 {
		levelCap := r.u64()
		levels := r.u64()
		if r.err == nil && (levelCap < 2 || levelCap > math.MaxInt32) {
			return fmt.Errorf("metrics: implausible sketch level cap %d", levelCap)
		}
		// Each level costs at least 16 bytes on the wire, so the level
		// count is bounded by the remaining input.
		if r.err == nil && levels > uint64(len(r.buf)-r.off)/16 {
			return fmt.Errorf("metrics: sketch level count %d exceeds input", levels)
		}
		sk = &sketch{levelCap: int(levelCap)}
		for h := uint64(0); h < levels && r.err == nil; h++ {
			comp := r.u64()
			lvl, err := r.f64Slice("sketch level")
			if err != nil {
				return err
			}
			sk.compactions = append(sk.compactions, comp)
			sk.levels = append(sk.levels, lvl)
		}
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("metrics: %d trailing bytes after digest", len(r.buf)-r.off)
	}
	// Cross-checks: the structure must describe a digest this package
	// could actually have produced.
	acc, err := stats.AccumulatorFromState(int(n), mean, m2, mn, mx)
	if err != nil {
		return err
	}
	resolvedCap := int(exactCap)
	if resolvedCap == 0 {
		resolvedCap = DefaultExactCap
	}
	if sk == nil {
		if len(exact) != int(n) {
			return fmt.Errorf("metrics: exact digest claims n=%d but carries %d samples", n, len(exact))
		}
		if len(exact) > resolvedCap {
			return fmt.Errorf("metrics: exact buffer of %d exceeds cap %d", len(exact), resolvedCap)
		}
	} else {
		if len(exact) != 0 {
			return fmt.Errorf("metrics: spilled digest still carries an exact buffer")
		}
		if len(sk.levels) == 0 {
			return fmt.Errorf("metrics: spilled digest with no sketch levels")
		}
		var retained uint64
		for h, lvl := range sk.levels {
			if len(lvl) > sk.levelCap {
				return fmt.Errorf("metrics: sketch level %d holds %d items, cap %d", h, len(lvl), sk.levelCap)
			}
			retained += uint64(len(lvl)) << uint(h)
		}
		if retained > n {
			return fmt.Errorf("metrics: sketch weight %d exceeds observation count %d", retained, n)
		}
	}
	d.acc = acc
	d.exactCap = int(exactCap)
	d.exact = exact
	d.sk = sk
	return nil
}

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// wireReader is a bounds-checked little-endian cursor: the first
// out-of-range read latches an error and every later read returns zero,
// so decoding code stays linear instead of nesting length checks.
type wireReader struct {
	buf []byte
	off int
	err error
}

func (r *wireReader) bytes(n int) []byte {
	if r.err != nil || r.off+n > len(r.buf) {
		if r.err == nil {
			r.err = fmt.Errorf("metrics: truncated digest (need %d bytes at offset %d of %d)", n, r.off, len(r.buf))
		}
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *wireReader) u8() byte {
	b := r.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *wireReader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

// f64Slice reads a length-prefixed float64 slice, bounding the claimed
// length by the bytes actually remaining before allocating.
func (r *wireReader) f64Slice(what string) ([]float64, error) {
	n := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if n > uint64(len(r.buf)-r.off)/8 {
		return nil, fmt.Errorf("metrics: %s length %d exceeds input", what, n)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
	}
	return out, r.err
}
