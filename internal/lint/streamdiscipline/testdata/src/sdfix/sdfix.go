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
//hh:draws one word when some slot recruits
func guardedSentinel(src *rng.Source, nR int) uint64 {
	if nR > 0 {
		return src.Uint64()
	}
	return 0
}

// guardedRetired gates a stream draw on an ant's quality register, which is
// not a sentinel: the engines gate keyed words on it, not stream draws.
//
//hh:hotpath
//hh:draws one word when quality is positive
func guardedRetired(src *rng.Source, quality float64) uint64 {
	if quality > 0 {
		return src.Uint64() // want "draw guarded by undocumented condition"
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

// reseedHelper reseeds the Source it is handed from the ant's keyed word
// before the hook draws from it, so a bucket loop may hand it any Source.
//
//hh:hotpath
//hh:draws whatever the hook draws, from src reseeded with the ant's keyed word
func reseedHelper(key rng.Key, src *rng.Source, i int, hook func(*rng.Source) uint64) uint64 {
	if hook != nil {
		key.ReseedAnt(src, i, 1, 3)
		return hook(src)
	}
	return 0
}

// drawHelper draws from the Source it is handed without reseeding it.
//
//hh:hotpath
//hh:draws one word from src
func drawHelper(src *rng.Source) uint64 {
	return src.Uint64()
}

// reseedAfter reseeds its Source only after drawing from it.
func reseedAfter(key rng.Key, src *rng.Source, i int) uint64 {
	v := src.Uint64()
	key.ReseedAnt(src, i, 1, 3)
	return v
}

// reseedInBranch reseeds its Source in a branch the draw is not in.
func reseedInBranch(key rng.Key, src *rng.Source, i int, hook func(*rng.Source) uint64) uint64 {
	if hook == nil {
		key.ReseedAnt(src, i, 1, 3)
	}
	return src.Uint64()
}

// closureHelper reseeds its Source, but a closure draws from it too.
func closureHelper(key rng.Key, src *rng.Source, i int) uint64 {
	f := func() uint64 { return src.Uint64() }
	key.ReseedAnt(src, i, 1, 3)
	return f()
}

// aliasHelper reseeds its Source, then draws through a copy of it.
func aliasHelper(key rng.Key, src *rng.Source, i int) uint64 {
	s := src
	key.ReseedAnt(src, i, 1, 3)
	return s.Uint64()
}

// srcHolder keeps a Source for later draws.
type srcHolder struct{ src *rng.Source }

// storeHelper reseeds its Source and stores it where later draws escape
// the check.
func storeHelper(key rng.Key, src *rng.Source, i int, h *srcHolder) uint64 {
	key.ReseedAnt(src, i, 1, 3)
	h.src = src
	return h.src.Uint64()
}

// bucketDraws ranges a state bucket: a stream draw consumes out of ant
// order — from a per-ant stream column too, or inside a callee that does
// not reseed the Source first or hands it on to a closure, a copy or a
// field — while a scratch Source reseeded from the ant's keyed word in the
// loop body or in the callee, and keyed words themselves, are fine; an
// annotation overrides.
//
//hh:hotpath
//hh:draws one word per member from the reseeded scratch
func bucketDraws(members []int32, src, scratch *rng.Source, antSrc []rng.Source, key rng.Key, hook func(*rng.Source) uint64) uint64 {
	var acc uint64
	var holder srcHolder
	for _, i := range members {
		acc += src.Uint64()            // want "stream draw inside a bucket-order loop"
		acc += antSrc[int(i)].Uint64() // want "stream draw inside a bucket-order loop"
		acc += hook(scratch)           // want "stream draw inside a bucket-order loop"
		acc += reseedHelper(key, scratch, int(i), hook)
		acc += drawHelper(scratch)                        // want "stream draw inside a bucket-order loop"
		acc += reseedAfter(key, scratch, int(i))          // want "stream draw inside a bucket-order loop"
		acc += reseedInBranch(key, scratch, int(i), hook) // want "stream draw inside a bucket-order loop"
		acc += closureHelper(key, scratch, int(i))        // want "stream draw inside a bucket-order loop"
		acc += aliasHelper(key, scratch, int(i))          // want "stream draw inside a bucket-order loop"
		acc += storeHelper(key, scratch, int(i), &holder) // want "stream draw inside a bucket-order loop"
		scratch.Reseed(key.AntWord(int(i), 1, 2))
		acc += hook(scratch)
		acc += scratch.Uint64()
		acc += key.AntWord(int(i), 1, 0)
		acc += hook(src) // want "stream draw inside a bucket-order loop"
		key.ReseedAnt(src, int(i), 1, 3)
		acc += hook(src)
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

var _ = []any{guardedBad, guardedSentinel, guardedRetired, guardedAnnotated, hookTransfer,
	thresholdGuard, reseedHelper, drawHelper, reseedAfter, reseedInBranch, closureHelper,
	aliasHelper, storeHelper, bucketDraws,
	missingContract, coldDraw, EmitBad, EmitNoScalar,
	EmitNoSpec, EmitGood, internalOp, ObserveBad, ObserveGood}
