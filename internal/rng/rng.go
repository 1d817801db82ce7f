// Package rng provides deterministic, splittable pseudo-random number
// streams for reproducible simulation experiments.
//
// Every stochastic component of the repository (the cluster emulator, the
// SAN solver, workload generators) draws from its own Stream so that
// experiments are reproducible bit-for-bit given a root seed, and so that
// changing the number of samples drawn by one component does not perturb
// the randomness seen by another. Streams are derived hierarchically with
// Child, following the common "seed sequence" design of simulation
// libraries.
//
// The generator is xoshiro256**, seeded through SplitMix64, which is the
// combination recommended by the xoshiro authors. It is not cryptographic;
// it is fast, has a 2^256-1 period and passes BigCrush.
package rng

import "math"

// Stream is a deterministic pseudo-random number stream. The zero value is
// not useful; construct streams with New or Child. A Stream is not safe for
// concurrent use; give each goroutine (or each simulated entity) its own
// child stream.
type Stream struct {
	s   [4]uint64
	key uint64 // immutable derivation key for Child; never advanced by draws
}

// splitmix64 advances the SplitMix64 state and returns the next output.
// It is used only for seeding, as recommended by the xoshiro authors.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Stream seeded from the given seed. Distinct seeds give
// statistically independent streams.
func New(seed uint64) *Stream {
	var r Stream
	r.Reseed(seed)
	return &r
}

// Reseed reinitializes the stream in place, exactly as New(seed) would,
// without allocating. Reusable simulators (netsim.Cluster.Reset and
// friends) reseed their retained child streams instead of deriving fresh
// ones, so replica turnover stays allocation-free.
func (r *Stream) Reseed(seed uint64) {
	st := seed
	r.key = splitmix64(&st)
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro256** must not be seeded with the all-zero state. SplitMix64
	// cannot produce four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Stream) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Child derives a new independent stream from this one, keyed by id. The
// derivation uses an immutable per-stream key rather than the generator
// state, so Child(i) returns the same stream no matter how many values the
// parent has produced — per-entity streams are stable across runs
// regardless of construction or consumption order.
func (r *Stream) Child(id uint64) *Stream {
	var c Stream
	r.ChildInto(&c, id)
	return &c
}

// ChildInto derives the Child(id) stream into dst in place: dst ends up
// bit-identical to Child(id) without a heap allocation. It is the reseed
// counterpart of Child for simulators that retain their per-entity
// streams across replicas.
func (r *Stream) ChildInto(dst *Stream, id uint64) {
	st := r.key ^ (id+1)*0x9e3779b97f4a7c15
	dst.key = splitmix64(&st)
	for i := range dst.s {
		dst.s[i] = splitmix64(&st)
	}
	if dst.s[0]|dst.s[1]|dst.s[2]|dst.s[3] == 0 {
		dst.s[0] = 1
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed sample with the given mean.
// It panics if mean is negative; a zero mean returns 0.
func (r *Stream) Exp(mean float64) float64 {
	if mean < 0 {
		panic("rng: Exp with negative mean")
	}
	if mean == 0 {
		return 0
	}
	// Inverse CDF. 1-Float64() is in (0,1], so Log never sees 0.
	return -mean * math.Log(1-r.Float64())
}

// Uniform returns a uniform sample in [lo, hi). It panics if hi < lo.
func (r *Stream) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Uniform with hi < lo")
	}
	return lo + (hi-lo)*r.Float64()
}
