// Package sdfix exercises every streamdiscipline rule: SD1 guarded
// draws, SD2 bucket-order draws, SD3 opcode contracts, SD4 hot-function
// draw contracts — each with at least one flagged and one allowed form.
package sdfix

import "rng"

type EmitOp uint8

type ObserveOp uint8

const (
	EmitBad EmitOp = iota // want "opcode const EmitBad has no draw contract"
	//hh:draws one word per ant
	EmitNoScalar // want "malformed"
	//hh:draws scalar=GoodAnt.Act
	EmitNoSpec // want "missing draw spec"
	//hh:draws one Bernoulli word per active ant scalar=GoodAnt.Act
	EmitGood
	// internalOp is not an exported opcode: no contract required.
	internalOp
)

const (
	ObserveBad ObserveOp = iota // want "opcode const ObserveBad has no draw contract"
	//hh:draws none scalar=GoodAnt.Observe
	ObserveGood
)

// Other is a const of unrelated type; the contract rule ignores it.
const Other = 3

// guardedBad draws under an undocumented non-sentinel condition.
//
//hh:hotpath
//hh:draws one word when ready
func guardedBad(src *rng.Source, ready bool) uint64 {
	if ready {
		return src.Uint64() // want "draw guarded by undocumented condition"
	}
	return 0
}

// guardedKeyed makes a keyed draw under an undocumented condition: a keyed
// draw consumes no stream, so the guard cannot desync anything.
//
//hh:hotpath
func guardedKeyed(key uint64, ready bool) uint64 {
	if ready {
		return rng.KeyedUint64n(key, 1, 0, 8)
	}
	return 0
}

// guardedSentinel gates its draw on a documented sentinel identifier.
//
//hh:hotpath
//hh:draws one word when quality is positive
func guardedSentinel(src *rng.Source, quality float64) uint64 {
	if quality > 0 {
		return src.Uint64()
	}
	return 0
}

// guardedAnnotated documents a non-sentinel guard in place.
//
//hh:hotpath
//hh:draws one word per ready call
func guardedAnnotated(src *rng.Source, ready bool) uint64 {
	//hh:draws the scalar engine draws under the identical ready flag
	if ready {
		return src.Uint64()
	}
	return 0
}

// hookTransfer hands the stream to a hook: a nil comparison is draw-free
// by contract, any other guard needs documentation.
//
//hh:hotpath
//hh:draws whatever the hook draws, once per call
func hookTransfer(hook func(*rng.Source) float64, src *rng.Source, ready bool) {
	if hook != nil {
		hook(src)
	}
	if ready {
		hook(src) // want "draw guarded by undocumented condition"
	}
}

// thresholdGuard draws through a Threshold; the sentinel bound justifies
// the fused compare.
//
//hh:hotpath
//hh:draws one word per in-range threshold
func thresholdGuard(t rng.Threshold, src *rng.Source, cheap bool) bool {
	var bound rng.Threshold = 1 << 53
	if t < bound {
		_ = cheap
		return t.Draw(src) // want "draw guarded by undocumented condition"
	}
	if t != rng.ThresholdNever {
		return t.Draw(src) // allowed: ThresholdNever is a documented sentinel
	}
	return false
}

// bucketDraws ranges a state bucket: shared streams consume out of ant
// order, indexed per-ant streams are fine, and an annotation overrides.
//
//hh:hotpath
//hh:draws one word per member
func bucketDraws(members []int32, src *rng.Source, antSrc []rng.Source) uint64 {
	var acc uint64
	for _, i := range members {
		acc += src.Uint64() // want "shared-stream draw inside a bucket-order loop"
		acc += antSrc[int(i)].Uint64()
	}
	//hh:antorder the scalar engine consumes this shared stream in the same bucket order
	for range members {
		acc += src.Uint64()
	}
	for i := 0; i < 4; i++ {
		acc += src.Uint64() // plain counted loop: no bucket, no SD2
	}
	return acc
}

// missingContract draws but its doc has no //hh:draws line.
//
//hh:hotpath
func missingContract(src *rng.Source) uint64 { // want "doc comment has no //hh:draws contract"
	return src.Uint64()
}

// coldDraw is not hotpath: streamdiscipline does not police cold code.
func coldDraw(src *rng.Source, ready bool) uint64 {
	if ready {
		return src.Uint64()
	}
	return 0
}

var _ = []any{guardedBad, guardedSentinel, guardedAnnotated, hookTransfer,
	thresholdGuard, bucketDraws, missingContract, coldDraw, EmitBad, EmitNoScalar,
	EmitNoSpec, EmitGood, internalOp, ObserveBad, ObserveGood}
