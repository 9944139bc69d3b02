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
	"errors"
	"math/bits"
)

// Source is a deterministic xoshiro256** pseudo-random number generator.
//
// The zero value is not a valid source (xoshiro must not have an all-zero
// state); construct one with New, NewFromState, or Split. Source is not safe
// for concurrent use; give each goroutine its own stream via Split.
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

// NewFromState reconstructs a Source from a previously captured state. It
// returns an error if the state is all zero, which is invalid for xoshiro.
func NewFromState(state [4]uint64) (*Source, error) {
	if state[0] == 0 && state[1] == 0 && state[2] == 0 && state[3] == 0 {
		return nil, errors.New("rng: all-zero state is invalid for xoshiro256**")
	}
	return &Source{s0: state[0], s1: state[1], s2: state[2], s3: state[3]}, nil
}

// State captures the current internal state, suitable for NewFromState.
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

// Int63 returns a non-negative 63-bit integer, mirroring math/rand.Source.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1)
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

// Perm returns a uniformly random permutation of [0, n) as a slice of ints,
// generated with the inside-out Fisher-Yates shuffle.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// PermInto fills dst (whose length defines n) with a uniformly random
// permutation of [0, len(dst)), avoiding the allocation of Perm. It returns
// dst for convenience.
//
// The bounded draw is Lemire's method fused inline (the call tree
// Intn → Uint64n does not inline, and a permutation is one bounded draw per
// element); the rare rejection tail shares uint64nReject with Uint64n, so
// the draw sequence is exactly Intn(i+1) per element.
//
//hh:hotpath
func (s *Source) PermInto(dst []int) []int {
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
		dst[j] = i
	}
	return dst
}

// PermInto32 is PermInto for an int32 destination: it fills dst with a
// uniformly random permutation of [0, len(dst)) drawn with exactly the same
// stream consumption as PermInto over a slice of the same length (the draws
// depend only on the length, not on the element type). The batch engine's
// matchers use it so a colony-sized permutation occupies half the cache
// footprint. len(dst) must not exceed MaxInt32+1; slot counts never do.
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
		skip := int(logFloat(u) / lq)
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
	return logFloat(q)
}

// logFloat is a minimal natural-log wrapper kept local so the hot path does
// not pull in additional dependencies; it simply defers to math.Log via the
// indirection in log_impl.go (split out for clarity).
func logFloat(x float64) float64 { return logImpl(x) }

// Geometric returns the number of Bernoulli(p) failures before the first
// success (support {0, 1, ...}). p must be in (0, 1]; p >= 1 returns 0 and
// p <= 0 panics, since the draw would be infinite.
func (s *Source) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("rng: Geometric called with p <= 0")
	}
	u := s.Float64()
	if u <= 0 {
		u = 1e-300
	}
	return int(logFloat(u) / logOnePminus(p))
}

// NormFloat64 returns a standard normal sample using the polar (Marsaglia)
// method. The spare value is not cached to keep the Source stateless beyond
// the xoshiro words; all our uses are far from the performance margin.
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * sqrtImpl(-2*logImpl(q)/q)
		}
	}
}

// Pick returns a uniformly random element index of a non-empty collection of
// size n, as Intn does, but is named to read better at call sites choosing
// ants or nests.
func (s *Source) Pick(n int) int { return s.Intn(n) }
