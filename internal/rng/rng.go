// Package rng provides the deterministic pseudo-random number generation
// substrate used by every stochastic component of the simulator.
//
// All randomness in an execution flows from a single 64-bit seed. A Source is
// a SplitMix64 stream; the root Source splits into independent child streams
// by index: one for the matcher's round keys, one whose first word keys the
// environment's search draws, one whose first word keys every ant's draws,
// and salted ones for fault plans and adversaries. Per-ant draws and search
// destinations are keyed draws (Key.AntWord): each value is a pure function
// of a key, the ant, its logical round and a fixed draw index, so it has no
// place in any stream at all, and the scalar and batch engines compute the
// same values in whatever order and on whatever core suits them. That is what
// makes whole executions reproducible byte-for-byte on both engines.
//
// The package is self-contained (stdlib only) and allocation-free on the hot
// paths. It is not cryptographically secure and must never be used for
// security purposes.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic SplitMix64 pseudo-random number generator
// (Steele, Lea & Flood, "Fast Splittable Pseudorandom Number Generators",
// OOPSLA 2014): a 64-bit counter that advances by splitmixGamma per draw,
// each output the counter passed through mix64. It is 8 bytes, and Reseed
// costs one mix, so a perception hook's Source can be reseeded from a keyed
// word on every call.
//
// Every state is valid, the zero value included; New, Split and Reseed are
// the usual ways to seed one. Source is not safe for concurrent use; give
// each goroutine its own stream via Split.
type Source struct {
	x uint64
}

// splitmixGamma is splitmix64's increment, the odd integer nearest 2^64/φ.
const splitmixGamma = 0x9e3779b97f4a7c15

// reseedFlip is the bit Reseed flips in its mixed seed. A key's keyed words
// sit on the lattice mix64(key) + c·splitmixGamma; a Source reseeded with
// the same key starts at mix64(key) XOR 2^63, which is 2^63·splitmixGamma
// away on that lattice (2^63 times an odd number is 2^63 mod 2^64). Its t-th
// word is then the lattice's word at counter t + 2^63, above every counter
// a keyed draw uses, so the stream never repeats a keyed word of its own
// seed. The Algorithm 1 matcher relies on this: it keys its targets and
// seeds its shuffle with the same round key.
const reseedFlip = 1 << 63

// New returns a Source seeded from the given 64-bit seed. Two sources built
// from the same seed produce identical output streams.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the source to the stream defined by seed, as if it had just
// been constructed with New(seed). It costs one mix64.
//
//hh:hotpath
func (s *Source) Reseed(seed uint64) {
	s.x = mix64(seed) ^ reseedFlip
}

// State captures the current internal state, so a test can pin how many
// draws a stream consumed.
func (s *Source) State() uint64 {
	return s.x
}

// Uint64 returns the next 64 bits of the stream.
//
//hh:hotpath
func (s *Source) Uint64() uint64 {
	s.x += splitmixGamma
	return mix64(s.x)
}

// splitStep spreads the Split indices apart before Reseed mixes them in.
const splitStep = 0xd1342543de82ef95

// Split derives an independent child stream from this source's state and
// the given index. Splitting is a pure function of (current state, index):
// it does NOT advance the parent stream, so the same parent can
// deterministically derive any number of children.
func (s *Source) Split(index uint64) *Source {
	var child Source
	s.SplitInto(index, &child)
	return &child
}

// SplitInto derives the same child stream as Split directly into dst,
// avoiding the allocation.
//
//hh:hotpath
func (s *Source) SplitInto(index uint64, dst *Source) {
	dst.Reseed(s.x ^ index*splitStep)
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

// Bernoulli returns true with probability p. Values of p <= 0 and NaN
// always return false and values >= 1 always return true, all without
// drawing.
//
//hh:hotpath
//hh:floatok the float form of a stream coin; fixed-point callers use Threshold.Draw
func (s *Source) Bernoulli(p float64) bool {
	if !(p > 0) {
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

// Binomial returns a sample from Binomial(n, p), exactly. Up to 64 trials it
// simulates each one (one Float64 per trial). Above that it sums geometric
// skips: the gap to the next success is floor(log U / log(1-p)) failures for
// a uniform U, so a call draws one word per success plus one, O(np) expected.
// p <= 0 and NaN return 0 and p >= 1 returns n, without drawing.
func (s *Source) Binomial(n int, p float64) int {
	if n <= 0 || !(p > 0) {
		return 0
	}
	if p >= 1 {
		return n
	}
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
	k := 0
	i := 0
	// log1p keeps log(1-p) negative for a p so small that 1-p rounds to 1.
	lq := math.Log1p(-p)
	for {
		u := s.Float64()
		if u <= 0 {
			u = 1e-300
		}
		// The skip is compared as a float, before any conversion: for a tiny
		// p it can exceed the int range.
		skip := math.Log(u) / lq
		if skip >= float64(n-i) {
			break
		}
		i += int(skip) + 1
		k++
	}
	return k
}
