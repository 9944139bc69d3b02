// Package rng provides the deterministic pseudo-random number generation
// substrate used by every stochastic component of the simulator.
//
// All randomness in an execution flows from a single 64-bit seed. The seed is
// expanded with splitmix64 into independent xoshiro256** streams: one for the
// environment (search destinations), one for the recruitment matcher, and one
// per ant. Because streams are split deterministically by index rather than
// drawn on demand, the scalar and batch engines observe identical random
// choices, which makes whole executions reproducible byte-for-byte. Keyed
// draws (KeyedUint64n, KeyedDraws32) go further: each value is a pure
// function of a key and a counter, so it has no place in any stream at all.
//
// The package is self-contained (stdlib only) and allocation-free on the hot
// paths. It is not cryptographically secure and must never be used for
// security purposes.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** pseudo-random number generator.
//
// The zero value is not a valid source (xoshiro must not have an all-zero
// state); construct one with New or Split. Source is not safe for concurrent
// use; give each goroutine its own stream via Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitmixGamma is splitmix64's increment, the odd integer nearest 2^64/φ.
const splitmixGamma = 0x9e3779b97f4a7c15

// splitmix64 advances x by splitmixGamma and returns the mixed output. It is used only for seeding: it guarantees a well-distributed,
// never-all-zero xoshiro state from any 64-bit seed.
//
//hh:hotpath
func splitmix64(x *uint64) uint64 {
	*x += splitmixGamma
	return mix64(*x)
}

// New returns a Source seeded from the given 64-bit seed. Two sources built
// from the same seed produce identical output streams.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the source to the stream defined by seed, as if it had just
// been constructed with New(seed).
//
//hh:hotpath
func (s *Source) Reseed(seed uint64) {
	sm := seed
	s.s0 = splitmix64(&sm)
	s.s1 = splitmix64(&sm)
	s.s2 = splitmix64(&sm)
	s.s3 = splitmix64(&sm)
}

// State captures the current internal state, so a test can pin how many
// draws a stream consumed.
func (s *Source) State() [4]uint64 {
	return [4]uint64{s.s0, s.s1, s.s2, s.s3}
}

// Uint64 returns the next 64 bits of the stream.
//
//hh:hotpath
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s1*5, 7) * 9

	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)

	return result
}

// Split derives an independent child stream from this source's seed material
// and the given index. Splitting is a pure function of (current state, index):
// it does NOT advance the parent stream, so the same parent can deterministically
// derive any number of children (e.g. one per ant, keyed by ant index).
func (s *Source) Split(index uint64) *Source {
	var child Source
	s.SplitInto(index, &child)
	return &child
}

// SplitInto derives the same child stream as Split directly into dst,
// avoiding the allocation; the batch engine uses it to re-seed thousands of
// per-ant streams per replicate without garbage.
//
//hh:hotpath
func (s *Source) SplitInto(index uint64, dst *Source) {
	// Mix the parent state with the index through splitmix64 so that children
	// with adjacent indices are decorrelated.
	mix := s.s0 ^ bits.RotateLeft64(s.s2, 19) ^ (index * 0xd1342543de82ef95)
	dst.Reseed(mix)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching the
// contract of math/rand.Intn; callers control n so this is a programmer error,
// not a runtime condition.
//
//hh:hotpath
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform integer in [0, n) using Lemire's nearly-divisionless
// bounded rejection method. It panics if n == 0.
//
// The function is split into an inlinable fast path (one multiply, no division)
// and the rare rejection tail: the permutation and matching loops of the
// simulator draw bounded integers per ant per round, so keeping the common case
// call-free is worth the contortion. The draw sequence is identical to the
// single-body form — the tail consumes additional words only when the first
// low product falls below n, exactly as before.
//
//hh:hotpath
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n = 0")
	}
	// Lemire 2019: multiply-shift with rejection on the low word.
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		return s.uint64nReject(hi, lo, n)
	}
	return hi
}

// uint64nReject is Uint64n's rejection tail: compute the exact threshold (the
// one division of the method) and redraw while the low word is biased. The
// first draw's words are passed in so the accepted value and the stream
// position are exactly those of the unsplit loop.
//
//hh:hotpath
func (s *Source) uint64nReject(hi, lo, n uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		hi, lo = bits.Mul64(s.Uint64(), n)
	}
	return hi
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
//
//hh:hotpath
//hh:floatok Float64 is the float fallback primitive itself; fixed-point callers use Threshold
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli returns true with probability p. Values of p <= 0 always return
// false and values >= 1 always return true.
//
//hh:hotpath
//hh:floatok float fallback path above batchTableMaxN; fixed-point callers use Threshold.Draw
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// PermInto32 fills dst (whose length defines n) with a uniformly random
// permutation of [0, len(dst)), generated with the inside-out Fisher–Yates
// shuffle, and returns dst. Element i takes one bounded draw Intn(i+1), with
// Lemire's method fused inline (the call tree Intn → Uint64n does not
// inline); the rare rejection tail shares uint64nReject with Uint64n, so the
// draw sequence is exactly Intn(i+1) per element. The batch engine's matchers
// use int32 so a colony-sized permutation occupies half the cache footprint.
// len(dst) must not exceed MaxInt32+1; slot counts never do.
//
//hh:hotpath
func (s *Source) PermInto32(dst []int32) []int32 {
	if len(dst) == 0 {
		return dst
	}
	dst[0] = 0
	for i := 1; i < len(dst); i++ {
		bound := uint64(i + 1)
		hi, lo := bits.Mul64(s.Uint64(), bound)
		if lo < bound {
			hi = s.uint64nReject(hi, lo, bound)
		}
		j := int(hi)
		dst[i] = dst[j]
		dst[j] = int32(i)
	}
	return dst
}

// Shuffle32 permutes dst uniformly at random in place: the Fisher–Yates
// shuffle from the back, one bounded draw Intn(i+1) per position i from
// len(dst)-1 down to 1, with PermInto32's fused Lemire fast path. The
// Algorithm 1 matcher shuffles its recruiting candidates with it.
//
//hh:hotpath
func (s *Source) Shuffle32(dst []int32) {
	for i := len(dst) - 1; i > 0; i-- {
		bound := uint64(i + 1)
		hi, lo := bits.Mul64(s.Uint64(), bound)
		if lo < bound {
			hi = s.uint64nReject(hi, lo, bound)
		}
		dst[i], dst[hi] = dst[hi], dst[i]
	}
}

// Shuffle permutes the first n elements using the provided swap function,
// mirroring math/rand.Shuffle.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Binomial returns a sample from Binomial(n, p) by direct simulation for
// small n and by inversion of the normal approximation with continuity
// correction rejected against exact tails for large n. The direct path is
// exact; the approximation keeps the error far below the statistical noise of
// any experiment in this repository.
func (s *Source) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// For the colony sizes used here (n up to ~10^6, but binomial draws only on
	// small slices), direct simulation up to a threshold is fast and exact.
	const directThreshold = 64
	if n <= directThreshold {
		k := 0
		for i := 0; i < n; i++ {
			if s.Float64() < p {
				k++
			}
		}
		return k
	}
	// BTRS-free fallback: sum of geometric skips (exact, O(np) expected).
	// For np moderately large this is still fine for our workloads.
	k := 0
	i := 0
	lq := logOnePminus(p)
	for {
		// Skip = floor(log(U)/log(1-p)) failures before next success.
		u := s.Float64()
		if u <= 0 {
			u = 1e-300
		}
		skip := int(math.Log(u) / lq)
		i += skip + 1
		if i > n {
			break
		}
		k++
	}
	return k
}

// logOnePminus returns log(1-p) guarding against p == 1.
func logOnePminus(p float64) float64 {
	q := 1 - p
	if q <= 0 {
		q = 1e-300
	}
	return math.Log(q)
}
