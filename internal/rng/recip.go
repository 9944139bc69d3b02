package rng

import (
	"fmt"
	"math"
	"math/bits"
)

// Recip is a precomputed fixed-point reciprocal of a positive integer
// divisor n. It derives the exact Threshold of count-ratio probabilities —
// NewThreshold(float64(c)/float64(n)) via Threshold, and
// NewThreshold(q·float64(c)/float64(n)) via ThresholdMul — per draw, from
// integer arithmetic only: no per-count table, no float operations on the
// hot path. This is what lets the batch engine's recruit kernels stay
// fixed-point at every colony size instead of capping at a table ceiling.
//
// Exactness is the whole contract: the scalar agents compute their
// probabilities in float64 and hand them to Source.Bernoulli, so a batch
// kernel is only admissible if it reproduces the float result bit for bit.
// Recip does so by emulating IEEE-754 round-to-nearest-even directly: the
// 53-bit mantissa M of fl(c/n) is the correctly rounded quotient
// RNE(c·2^(53+e)/n) for the normalizing exponent e (chosen so
// n ≤ c·2^(e+1) < 2n), computed with a 128-by-64-bit division against the
// precomputed Möller–Granlund reciprocal of n; the threshold is then
// ⌈M·2^−e⌉, exactly NewThreshold's ceiling of p·2⁵³. ThresholdMul adds one
// exactly-rounded 53-bit product in front (emulating fl(q·c)) before the
// same division, mirroring the scalar expression's evaluation order.
// recip_test.go pins both kernels against the float oracle exhaustively
// over small divisors and by property sweep over large ones.
type Recip struct {
	n    uint64 // the divisor
	d    uint64 // n normalized: n << z, top bit set
	v    uint64 // Möller–Granlund word reciprocal of d
	z    uint   // normalization shift: 64 − bits.Len64(n)
	lenN uint   // bits.Len64(n)
	nF   float64
}

// MaxRecipN bounds NewRecip divisors: 2⁵³, the largest n for which every
// count c ≤ n converts to float64 exactly. The kernels emulate the scalar
// float expressions bit for bit, which requires exact operands.
const MaxRecipN = 1 << 53

// NewRecip precomputes the reciprocal of n. It panics when n is outside
// [1, MaxRecipN]; callers size-validate first (colonies near 2⁵³ ants are
// unconstructible long before this bound bites).
func NewRecip(n int) Recip {
	if n <= 0 || uint64(n) > MaxRecipN {
		panic(fmt.Sprintf("rng: NewRecip divisor %d outside [1, 2^53]", n))
	}
	un := uint64(n)
	z := uint(bits.LeadingZeros64(un))
	d := un << z
	// v = ⌊(2¹²⁸−1)/d⌋ − 2⁶⁴, the 2-by-1 division reciprocal.
	v, _ := bits.Div64(^d, ^uint64(0), d)
	return Recip{n: un, d: d, v: v, z: z, lenN: 64 - z, nF: float64(n)}
}

// N returns the divisor.
func (r Recip) N() int { return int(r.n) }

// divRNE divides the 128-bit numerator u = uhi·2⁶⁴ + ulo (already scaled by
// the normalization shift z) by the normalized divisor d, rounding the
// quotient to nearest, ties to even. Precondition: uhi < d. The remainder
// comparison against d−rem is exact because normalization scales numerator
// and divisor by the same power of two.
//
//hh:hotpath
func (r Recip) divRNE(uhi, ulo uint64) uint64 {
	d := r.d
	// Möller–Granlund 2-by-1 division via the precomputed reciprocal
	// (no hardware divide): q = ⌊u/d⌋, rem = u mod d.
	qh, ql := bits.Mul64(r.v, uhi)
	var carry uint64
	ql, carry = bits.Add64(ql, ulo, 0)
	qh, _ = bits.Add64(qh, uhi, carry)
	qh++
	rem := ulo - qh*d
	if rem > ql {
		qh--
		rem += d
	}
	if rem >= d {
		qh++
		rem -= d
	}
	// Round to nearest: up when 2·rem > d, and on the exact tie when the
	// truncated quotient is odd (ties to even).
	half := d - rem
	if rem > half || (rem == half && qh&1 == 1) {
		qh++
	}
	return qh
}

// Threshold returns NewThreshold(float64(c) / float64(n)) — the exact
// fixed-point Bernoulli bound of the scalar count-ratio probability —
// computed with integer arithmetic only.
//
//hh:hotpath
func (r Recip) Threshold(c int) Threshold {
	if c <= 0 {
		return ThresholdNever // p ≤ 0 rejects draw-free, like NewThreshold
	}
	uc := uint64(c)
	if uc >= r.n {
		return ThresholdAlways // p ≥ 1 accepts draw-free
	}
	// Choose e with n ≤ c·2^(e+1) < 2n, so the true ratio lies in
	// [2^−(e+1), 2^−e) and the rounded 53-bit mantissa M = RNE(c·2^(53+e)/n)
	// sits in [2⁵², 2⁵³].
	s := r.lenN - uint(bits.Len64(uc))
	e := s
	if s > 0 && uc<<s >= r.n {
		e = s - 1
	}
	// Numerator c·2^(53+e), pre-shifted by z so the division is by d = n·2^z.
	// c·2^(53+e) < n·2⁵³ keeps the scaled high word below d.
	sh := 53 + e + r.z
	var uhi, ulo uint64
	if sh < 64 {
		uhi = uc >> (64 - sh)
		ulo = uc << sh
	} else {
		uhi = uc << (sh - 64)
	}
	m := r.divRNE(uhi, ulo)
	// NewThreshold's ceiling: t = ⌈fl(c/n)·2⁵³⌉ = ⌈M·2^−e⌉. A mantissa that
	// rounded up to 2⁵³ renormalizes into the next binade, where the ceiling
	// below is exact for it too.
	return Threshold((m + 1<<e - 1) >> e)
}

// ThresholdMul returns NewThreshold(q * float64(c) / float64(n)) — the
// scalar quality-weighted probability, with its left-to-right float
// evaluation order (the product rounds once, the quotient rounds once) —
// computed with integer arithmetic on the main path. q = ±0 — the quality
// register of every ant at a bad nest or just captured — returns
// ThresholdNever up front, exactly: ±0·c/n is ±0 for every int c. The other
// inputs outside the fast domain (negative, NaN, infinite or subnormal q,
// non-positive c, or products that leave float64's normal range) fall back
// to the float oracle itself, which is trivially exact and cold: engine
// quality registers hold environment qualities, 0 or 1, and counts at most
// n.
//
//hh:hotpath
func (r Recip) ThresholdMul(q float64, c int) Threshold {
	if q == 0 {
		return ThresholdNever
	}
	qb := math.Float64bits(q)
	exp := int(qb >> 52) // sign bit folds in: negatives have exp ≥ 2048
	if c <= 0 || uint64(c) > 1<<53 || exp == 0 || exp >= 0x7ff {
		// q < 0 (sign set ⇒ exp ≥ 2048), subnormal q (exp 0), NaN/Inf
		// (exp 0x7ff), a non-positive count, or a count too large to
		// convert to float64 exactly: delegate to the float definition.
		// Cold by construction for engine inputs (counts never exceed n).
		return NewThreshold(q * float64(c) / r.nF) //hh:floatok cold fallback outside the integer kernels' domain delegates to the float oracle it emulates
	}
	mant := qb&(1<<52-1) | 1<<52
	uc := uint64(c)
	// fl(q·c): exact 106-bit product, rounded to a 53-bit mantissa am with
	// value am·2^e2 (am ∈ [2⁵², 2⁵³)).
	hi, lo := bits.Mul64(mant, uc)
	e2 := exp - 1075 // q = mant·2^(exp−1075)
	if hi == 0 && lo < 1<<53 {
		// The product is exact and already normalized: mant ≥ 2⁵² and
		// c ≥ 1 put it in [2⁵², 2⁵³).
	} else {
		var bl int
		if hi != 0 {
			bl = 128 - bits.LeadingZeros64(hi)
		} else {
			bl = 64 - bits.LeadingZeros64(lo)
		}
		t := uint(bl - 53)
		rem := lo & (1<<t - 1)
		qv := hi<<(64-t) | lo>>t
		half := uint64(1) << (t - 1)
		if rem > half || (rem == half && qv&1 == 1) {
			qv++
		}
		e2 += int(t)
		if qv == 1<<53 { // rounded into the next binade
			qv >>= 1
			e2++
		}
		lo = qv
	}
	am := lo // 53-bit normalized mantissa of fl(q·c), value am·2^e2
	if e2 < -1074 || e2 > 971 {
		// fl(q·c) leaves the normal range (subnormal rounding granularity,
		// or overflow to +Inf): the float oracle is authoritative.
		return NewThreshold(q * float64(c) / r.nF) //hh:floatok cold fallback outside the integer kernels' domain delegates to the float oracle it emulates
	}
	// fl(am·2^e2 / n): locate the quotient's binade. The ratio lies in
	// [2^E, 2^(E+1)) with E = 52 + e2 − lenN, bumped by one when
	// am ≥ n·2^(53−lenN).
	E := 52 + e2 - int(r.lenN)
	var geq bool
	if r.lenN <= 53 {
		geq = am >= r.n<<(53-r.lenN)
	} else {
		geq = true // n = 2⁵³ (lenN 54): am ≥ 2⁵² = n·2^−1 always
	}
	if geq {
		E++
	}
	switch {
	case E >= 0:
		return ThresholdAlways // ratio ≥ 1 accepts draw-free
	case E < -1022:
		// Quotient in (or rounding through) the subnormal range: oracle.
		return NewThreshold(q * float64(c) / r.nF) //hh:floatok cold fallback outside the integer kernels' domain delegates to the float oracle it emulates
	case E <= -55:
		// 0 < fl(p) < 2^−53: the ceiling of p·2⁵³ is 1 for the whole range.
		return 1
	}
	// Mantissa M = RNE(am·2^g/n) with g = 52 − E + e2, then the same ceiling
	// as Threshold. Since E = 52 + e2 − lenN (+1 when geq), g collapses to
	// lenN − bump ∈ {lenN−1, lenN}, i.e. the numerator shift is just n's
	// bit length adjusted by the binade bump — bounded and integer-exact.
	e := -(E + 1)
	g := int(r.lenN)
	if geq {
		g--
	}
	sh := uint(g) + r.z
	var uhi, ulo uint64
	if sh < 64 {
		uhi = am >> (64 - sh)
		ulo = am << sh
	} else {
		uhi = am << (sh - 64)
	}
	m := r.divRNE(uhi, ulo)
	return Threshold((m + 1<<uint(e) - 1) >> uint(e))
}
