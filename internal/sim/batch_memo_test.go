package sim

import (
	"math"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
)

// memoKey is one ant's draw input: its quality and count registers.
type memoKey struct {
	q float64
	c int32
}

// memoCollisionKeys lists draw inputs that fight over thresholdMemo slots.
// For the count-only kernels: counts congruent modulo the memo size — in
// range, above n and negative — plus the sentinel counts 0 and n. For the
// quality kernel additionally: one count under every quality, per quality a
// count chosen so that every (quality, count) key hashes to one shared
// slot, and one count under two far-apart qualities whose keys share a
// slot, so only the quality bits tell them apart.
func memoCollisionKeys(n int32, withQualities bool) []memoKey {
	const size = 1 << memoBits
	base := n/2 + 40 // mid-range probabilities, so a wrong threshold shows in the draws
	var keys []memoKey
	for _, c := range []int32{base, base + size, base + 2*size, base + n, base - n, 0, n} {
		keys = append(keys, memoKey{1, c})
	}
	if !withQualities {
		return keys
	}
	target := memoSlot(0, base)
	for _, q := range []float64{0.3, 0.7, 1, 0, math.Copysign(0, -1), 0.9} {
		qb := math.Float64bits(q)
		keys = append(keys,
			memoKey{q, base},
			memoKey{q, base&^(size-1) | int32(target^memoSlot(qb, 0))})
	}
	lo, hi := 0.2, 0.95
	for memoSlot(math.Float64bits(hi), base) != memoSlot(math.Float64bits(lo), base) {
		hi = math.Nextafter(hi, 0)
	}
	return append(keys, memoKey{lo, base}, memoKey{hi, base})
}

// memoLane builds the minimal lane both draw paths read — the lockstep
// drawActiveRange and the general path's emitShard over one state bucket —
// with ant i holding keys[i % len(keys)] and every fifth ant passive
// (quality 0) where the kernel gates on quality, so colliding keys
// interleave ant by ant.
func memoLane(n int, keys []memoKey, ants int, gate bool, seed uint64) *lane {
	ln := &lane{
		n: n, k: 1, numExec: 1, shards: 1,
		quality:    make([]float64, ants),
		count:      make([]int32, ants),
		nest:       make([]NestID, ants),
		actNest:    make([]NestID, ants),
		active:     make([]bool, ants),
		paramI:     make([]int32, ants),
		antSrc:     make([]rng.Source, ants),
		isRecr:     make([]uint8, ants),
		actBit:     make([]uint8, ants),
		preState:   make([]uint8, ants),
		shCounts:   make([]int, 2),
		shNRecr:    make([]int32, 1),
		shTrans:    make([]uint8, 1),
		shErrKind:  make([]uint8, 1),
		shErrState: make([]int32, 1),
		shErrAnt:   make([]int32, 1),
		shErrNest:  make([]NestID, 1),
		segOff:     []int32{0, int32(ants)},
		phBkt:      make([]int32, ants),
		rcp:        rng.NewRecip(n),
	}
	root := rng.New(seed)
	for i := 0; i < ants; i++ {
		key := keys[i%len(keys)]
		ln.quality[i], ln.count[i] = key.q, key.c
		if gate && i%5 == 4 {
			ln.quality[i] = 0
		}
		ln.nest[i] = 1
		ln.phBkt[i] = int32(i)
		root.SplitInto(uint64(i), &ln.antSrc[i])
	}
	return ln
}

// TestThresholdMemoCollisions forces the draw-call memo through colliding
// keys and checks every memoized kernel against per-draw kernel calls: the
// lockstep active column (drawActiveRange) for the count-ratio, quality and
// adaptive draws, the general path's recruit bits (emitShard) for the
// count-ratio and quality draws, and every ant's stream state afterwards.
func TestThresholdMemoCollisions(t *testing.T) {
	t.Parallel()
	const (
		n    = 1 << 20 // above batchTableMaxN: no popT, every count-ratio draw is memoized
		ants = 700
	)
	rcp := rng.NewRecip(n)
	const phases, tau, floorDiv = 5, 2, 8.0
	decay := adaptiveDecay(n, phases, tau, floorDiv)
	cases := []struct {
		name    string
		op      EmitOp
		general bool
		quals   bool
		gate    bool
		want    func(q float64, c int32, src *rng.Source) bool
	}{
		{"pop", EmitRecruitPop, false, false, true, func(_ float64, c int32, src *rng.Source) bool {
			return rcp.Threshold(int(c)).Draw(src)
		}},
		{"qual", EmitRecruitQual, false, true, false, func(q float64, c int32, src *rng.Source) bool {
			return rcp.ThresholdMul(q, int(c)).Draw(src)
		}},
		{"adaptive", EmitRecruitAdaptive, false, false, true, func(_ float64, c int32, src *rng.Source) bool {
			return src.Bernoulli(AdaptiveRecruitProbability(n, int(c), phases, tau, floorDiv))
		}},
		{"general/pop", EmitRecruitPop, true, false, true, func(_ float64, c int32, src *rng.Source) bool {
			return rcp.Threshold(int(c)).Draw(src)
		}},
		{"general/qual", EmitRecruitQual, true, true, false, func(q float64, c int32, src *rng.Source) bool {
			return rcp.ThresholdMul(q, int(c)).Draw(src)
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			keys := memoCollisionKeys(n, tc.quals)
			ln := memoLane(n, keys, ants, tc.gate, 2015)
			ref := append([]rng.Source(nil), ln.antSrc...)
			if tc.general {
				ln.states[0] = ProgramState{Emit: tc.op}
				ln.emitShard(0)
				if ln.shErrKind[0] != errNone {
					t.Fatalf("emit parked error kind %d at ant %d", ln.shErrKind[0], ln.shErrAnt[0])
				}
			} else {
				ln.phDecay = decay
				ln.drawActiveRange(tc.op, 0, ants)
			}
			for i := 0; i < ants; i++ {
				q, c := ln.quality[i], ln.count[i]
				want := false
				if q > 0 || tc.op == EmitRecruitQual {
					want = tc.want(q, c, &ref[i])
				}
				got := ln.active[i]
				if tc.general {
					got = ln.actBit[i] != 0
				}
				if got != want {
					t.Fatalf("ant %d (q=%v, c=%d): drew %v, per-draw kernel %v", i, q, c, got, want)
				}
				if ln.antSrc[i].State() != ref[i].State() {
					t.Fatalf("ant %d (q=%v, c=%d): stream state diverged from the per-draw kernel's", i, q, c)
				}
			}
		})
	}
}
