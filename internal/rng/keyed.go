package rng

import "math/bits"

// Keyed draws are counter-based, in the sense of Salmon et al., "Parallel
// Random Numbers: As Easy as 1, 2, 3" (SC 2011): each value is a pure
// function of a key and a counter, with no stream state. A keyed draw can
// therefore be made in any order, on any core, or skipped, without moving
// any other draw; a Source's draws, by contrast, depend on every draw made
// before them. The Algorithm 1 matcher draws one key per round from its
// Source and derives every recruiter's targets from it, and every per-ant
// draw and search destination of both engines is a keyed draw (Key.AntWord).

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
// consecutive splitmix64 outputs. A Source reseeded with the same key runs
// on the same sequence from counter 2^63 + 1 on (see reseedFlip), so while
// j stays below 2^31 it never repeats one of these words. The word is
// reduced to [0, n) by Lemire's multiply-shift; a word in the biased low
// range is rejected exactly as Uint64n rejects it, and the draw re-mixes its
// counter one keyedRejectStep on for a fresh word, so the accepted value is
// exactly uniform.
//
//hh:hotpath
func KeyedUint64n(key, i, j, n uint64) uint64 {
	return keyedUint64n(mix64(key)+(i+j<<32+1)*splitmixGamma, n)
}

// keyedUint64n reduces the word at lattice point x to [0, n), rejecting as
// KeyedUint64n documents.
//
//hh:hotpath
func keyedUint64n(x, n uint64) uint64 {
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

// A Key is a replicate key mixed once: the origin of the key's keyed
// lattice, ready for per-ant draws. A replicate has two: the agent key,
// the first word of the root's Split(2) (the Source an algorithm's Build
// receives), and the environment key, the first word of Split(0). A Key is
// 8 bytes and holds no stream state.
type Key struct {
	origin uint64
}

// Key draws the stream's next word as a Key: the word mixed into the origin
// of its lattice, so the Key's words are those KeyedUint64n draws under the
// word. The scalar builders and the batch lanes both derive their agent and
// environment keys this way, from the first word of the same split.
func (s *Source) Key() Key {
	return Key{origin: mix64(s.Uint64())}
}

// AntDraw is one of the fixed per-ant draw indices both engines share. An
// ant makes each at most once per logical round, so (ant, round, index)
// names a draw uniquely.
type AntDraw uint64

const (
	// DrawSearch is a search destination, under the environment key.
	DrawSearch AntDraw = iota
	// DrawRecruit is the recruit coin of Algorithm 3 and its variants.
	DrawRecruit
	// DrawCount seeds the count-perception hook's Source.
	DrawCount
	// DrawAssess seeds the quality-assessment hook's Source.
	DrawAssess
	// DrawDocility is Quorum's docility coin.
	DrawDocility
	// DrawNEst is ApproxN's private colony-size estimate, drawn at logical
	// round 0.
	DrawNEst

	// antDrawBits is the width of the index field under the round.
	antDrawBits = 3
)

// AntWord returns the word ant draws for index d at logical round round:
// the key's keyed word at stream ant, draw round·8 + d, so
// KeyedUint64n(key, ant, round·8+d, n) reduces exactly this word. It defines
// every per-ant draw on both engines: the scalar agents call it with the
// round their Act or Observe receives, and the batch lanes compute the same
// word for the same logical round, through AntWord itself or, in their
// contiguous loops, AntRow; search destinations are AntIntn's reduction of
// the environment key's words. All three read the lattice point antPoint.
// ant must lie in [0, 2^32) and round in [0, 2^28), which keeps the draw
// index below 2^31 and every counter below the reseeded Sources' (see
// reseedFlip). It inlines.
//
//hh:hotpath
func (k Key) AntWord(ant, round int, d AntDraw) uint64 {
	return mix64(k.antPoint(ant, round, d))
}

// AntIntn returns a uniform integer in [0, n) from ant's draw d at logical
// round round: AntWord's word reduced by Lemire's multiply-shift, with
// KeyedUint64n's exact rejection, so it equals
// KeyedUint64n(key, ant, round·8+d, n). Search destinations come from it.
// n must be positive.
//
//hh:hotpath
func (k Key) AntIntn(ant, round int, d AntDraw, n int) int {
	return int(keyedUint64n(k.antPoint(ant, round, d), uint64(n)))
}

// ReseedAnt seeds src for ant's draw d at logical round round: exactly
// src.Reseed(p) for the draw's lattice point p, so src's state becomes the
// draw's keyed word AntWord(ant, round, d) flipped by reseedFlip, and the
// seeding costs the one mix that makes the word. A perception hook draws
// from a Source seeded this way, so its draws are a pure function of
// (key, ant, round, d) as well.
//
//hh:hotpath
func (k Key) ReseedAnt(src *Source, ant, round int, d AntDraw) {
	src.Reseed(k.antPoint(ant, round, d))
}

// AntRow walks AntWord across consecutive ants of one round and draw index:
// the counters of ants a, a+1, … are consecutive, so the row is one
// splitmix64 sequence and each step costs one add and one mix. Next returns
// exactly AntWord(ant, round, d) for the row's next ant. The lockstep lanes'
// per-ant loops use it: it keeps the round arithmetic out of the loop and
// leaves the loop registers enough that the draw loop runs 25–40% faster
// than one AntWord per ant (2.6–4.2 against 3.8–6.4 ns/ant over 1024 ants
// on one core of the 2-core Xeon).
type AntRow struct {
	x uint64
}

// AntRow starts a row at ant's word for draw d at round.
//
//hh:hotpath
func (k Key) AntRow(ant, round int, d AntDraw) AntRow {
	return AntRow{x: k.antPoint(ant, round, d)}
}

// Next returns the row's current word and the row stepped to the next ant.
// It takes and returns the row by value, so a loop keeps it in a register.
//
//hh:hotpath
func (r AntRow) Next() (uint64, AntRow) {
	return mix64(r.x), AntRow{x: r.x + splitmixGamma}
}

// antPoint is the lattice point of ant's draw d at round.
//
//hh:hotpath
func (k Key) antPoint(ant, round int, d AntDraw) uint64 {
	j := uint64(round)<<antDrawBits | uint64(d)
	return k.origin + (uint64(ant)+j<<32+1)*splitmixGamma
}

// WordFloat64 maps a keyed word to a uniform float64 in [0, 1) exactly as
// Source.Float64 maps a stream word: its high 53 bits, scaled. A coin with
// probability p is WordFloat64(w) < p, which rejects at p <= 0 and NaN and
// accepts at p >= 1, and equals Threshold.Accept(w) for NewThreshold(p).
//
//hh:hotpath
//hh:floatok the float form of a keyed coin; fixed-point callers use Threshold.Accept
func WordFloat64(w uint64) float64 {
	return float64(w>>11) * (1.0 / (1 << 53))
}
