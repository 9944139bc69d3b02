package rng

// Threshold is a Bernoulli acceptance bound in 53-bit fixed point: a
// precomputed form of a probability p such that Accept on a keyed word, and
// Draw on a Source, reproduce WordFloat64(w) < p and Source.Bernoulli(p) bit
// for bit, while comparing raw integers instead of converting and comparing
// floats.
//
// Derivation. A word w maps to the float float64(w>>11) · 2⁻⁵³: its high 53
// bits, scaled into [0, 1). Write x = w>>11, an integer in [0, 2⁵³). Both
// float64(x) and the scaling by the power of two are exact, so for
// p ∈ (0, 1):
//
//	x·2⁻⁵³ < p  ⟺  x < p·2⁵³  (as reals)
//	            ⟺  x < ⌈p·2⁵³⌉  (x is an integer)
//
// The product p·2⁵³ is itself computed exactly in float64 (multiplying by a
// power of two only shifts the exponent; p < 1 rules out overflow, and a
// subnormal p scales up to a normal product), so T = ⌈p·2⁵³⌉ is an exact
// integer in [1, 2⁵³−1] — the largest float64 below 1 is 1−2⁻⁵³, whose
// threshold is 2⁵³−1. That leaves 0 for p ≤ 0 and NaN, which always
// reject, and 2⁵³ for p ≥ 1, which always accepts: x < 0 never holds and
// x < 2⁵³ always does, so Accept is one compare for every threshold. The
// batch engine materializes tables of Thresholds (one per possible count) so
// its recruit loops run with zero floating-point operations;
// thresholdEquivalence in threshold_test.go pins the equivalence
// exhaustively over boundary probabilities and full count/n ranges.
type Threshold uint64

const (
	// ThresholdNever encodes p <= 0 and NaN: reject.
	ThresholdNever Threshold = 0
	// ThresholdAlways encodes p >= 1: accept. Real thresholds are at most
	// 2⁵³−1, so the value cannot collide.
	ThresholdAlways Threshold = 1 << 53
)

// NewThreshold compiles probability p into its fixed-point acceptance bound.
// Every float64 p — including ±0, values outside [0, 1], subnormals and NaN —
// maps to a Threshold whose Accept is bit-identical to WordFloat64(w) < p.
//
//hh:hotpath
//hh:floatok the float→fixed compiler: the one place p crosses from float to Threshold
func NewThreshold(p float64) Threshold {
	switch {
	case !(p > 0):
		return ThresholdNever
	case p >= 1:
		return ThresholdAlways
	}
	y := p * (1 << 53) // exact: a power-of-two scale only shifts the exponent
	t := Threshold(y)  // truncation toward zero, exact for y < 2⁶³
	if float64(t) < y {
		t++ // ceiling for non-integer products
	}
	return t
}

// Accept decides the encoded Bernoulli on keyed word w: true with the
// compiled probability. It is one compare and no branch, for every
// threshold.
//
//hh:hotpath
func (t Threshold) Accept(w uint64) bool {
	return w>>11 < uint64(t)
}

// Draw samples the encoded Bernoulli from src: true with the compiled
// probability, consuming exactly the words Source.Bernoulli would consume
// (one for p strictly inside (0, 1), none otherwise).
//
//hh:hotpath
func (t Threshold) Draw(src *Source) bool {
	if t == ThresholdNever || t == ThresholdAlways {
		return t == ThresholdAlways
	}
	return t.Accept(src.Uint64())
}
