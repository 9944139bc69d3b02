package rng

import "math/bits"

// Keyed draws are counter-based, in the sense of Salmon et al., "Parallel
// Random Numbers: As Easy as 1, 2, 3" (SC 2011): each value is a pure
// function of a key and a counter, with no stream state. A keyed draw can
// therefore be made in any order, on any core, or skipped, without moving
// any other draw; a Source's draws, by contrast, depend on every draw made
// before them. The Algorithm 1 matcher draws one key per round from its
// Source and derives every recruiter's targets from it.

// keyedRejectStep advances a rejected keyed draw to its next word. Draws
// sit on the lattice seed + c·splitmixGamma; a redraw steps on this second
// odd constant, off that lattice, so it does not reuse another draw's word.
const keyedRejectStep = 0xd1b54a32d192ed03

// mix64 is splitmix64's output finalizer (Stafford's variant 13): a
// bijection of the 64-bit words whose every output bit depends on every
// input bit.
//
//hh:hotpath
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// KeyedUint64n returns a uniform integer in [0, n): draw j of keyed stream i
// under key. The result is a pure function of (key, i, j, n). n must be
// positive, and i and j must be below 2^32.
//
// Under one key the keyed streams are positions of one splitmix64 sequence,
// seeded at mix64(key): draw j of stream i is the sequence's output at
// counter i + j·2^32 + 1, so the first draws of streams 0, 1, 2, … are
// consecutive splitmix64 outputs. Mixing the key first keeps these words
// apart from a Source reseeded with the same key. The word is reduced to
// [0, n) by Lemire's multiply-shift; a word in the biased low range is
// rejected exactly as Uint64n rejects it, and the draw re-mixes its counter
// one keyedRejectStep on for a fresh word, so the accepted value is exactly
// uniform.
//
//hh:hotpath
func KeyedUint64n(key, i, j, n uint64) uint64 {
	x := mix64(key) + (i+j<<32+1)*splitmixGamma
	hi, lo := bits.Mul64(mix64(x), n)
	if lo < n {
		hi = keyedReject(x, hi, lo, n)
	}
	return hi
}

// KeyedDraws32 fills dst[i] with KeyedUint64n(key, uint64(streams[i]), j, n)
// for every i < len(streams): draw j of each listed stream, as int32 (n must
// not exceed MaxInt32+1, and streams must be non-negative). It is the batch
// form of KeyedUint64n, which is too large to inline: the loop here mixes
// the key once and inlines the rest, so a draw costs one mix and no call.
//
//hh:hotpath
func KeyedDraws32(dst []int32, key uint64, streams []int32, j, n uint64) {
	dst = dst[:len(streams)]
	base := mix64(key) + (j<<32+1)*splitmixGamma
	for i, s := range streams {
		x := base + uint64(s)*splitmixGamma
		hi, lo := bits.Mul64(mix64(x), n)
		if lo < n {
			hi = keyedReject(x, hi, lo, n)
		}
		dst[i] = int32(hi)
	}
}

// keyedReject is the keyed draws' rejection tail, split out like
// uint64nReject so the loops that draw keep only the common path inline.
//
//hh:hotpath
func keyedReject(x, hi, lo, n uint64) uint64 {
	thresh := -n % n
	for lo < thresh {
		x += keyedRejectStep
		hi, lo = bits.Mul64(mix64(x), n)
	}
	return hi
}
