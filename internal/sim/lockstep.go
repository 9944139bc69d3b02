package sim

import (
	"math"
	"slices"

	"github.com/gmrl/househunt/internal/rng"
)

// stepLockstep resolves one synchronous round for a colony whose program has
// static successors: emit + move, recruitment matching, end-of-round counts,
// observe, all in per-opcode specialized loops. It is the batch counterpart
// of Engine.Step/resolve with the same randomness. phase is the colony's
// shared PFSM state; the returned value is next round's phase.
//
//hh:hotpath
//hh:draws matchSrc via Match only; search destinations, recruit coins and perception hooks are keyed per (ant, round)
func (ln *lane) stepLockstep(phase uint8) (uint8, error) {
	n, k := ln.n, ln.k
	st := ln.states[phase]
	nest := ln.nest
	actNest := ln.actNest
	counts := ln.counts

	// Emit and move, accumulating end-of-round populations as we go. The
	// search destinations and recruit coins are keyed, so both phases shard.
	//
	// act is the outcome-nest column the observe loops read: the freshly
	// filled actNest for search and recruit rounds, and the nest register
	// itself for go rounds — a go round's outcome nest IS the committed
	// nest, so aliasing spares the copy (and the observe folds never write
	// nest[i] on a go round, because outcome and register always coincide).
	act := actNest
	switch st.Emit {
	case EmitSearch:
		ln.pool.run(ln.fnSearch)
		for i := range counts {
			counts[i] = 0
		}
		k1 := k + 1
		for sh := 0; sh < ln.shards; sh++ {
			for j, v := range ln.shCounts[sh*k1 : (sh+1)*k1] {
				counts[j] += v
			}
		}
	case EmitGotoNest:
		// Every ant moves to its committed nest, so the end-of-round
		// populations are exactly the commitment census the lane already
		// maintains — O(k) instead of a colony scan. A committed Home nest
		// means some ant would emit go(0), which the scalar engine rejects;
		// surface the general path's error for the first such ant.
		if ln.commit[Home] != 0 {
			return 0, emitErr(errGotoNest, slices.Index(nest, homeNest), k)
		}
		copy(counts, ln.commit)
		act = nest
	case EmitRecruitPop, EmitRecruitQual, EmitRecruitAdaptive, EmitRecruitApproxN:
		// The active bits are keyed coins, so the draw loop shards. The
		// adaptive decay term is hoisted here,
		// sequentially: the phase clock is colony-uniform on lockstep
		// programs, and the draw shards advance paramI as they go.
		if st.Emit == EmitRecruitAdaptive {
			ln.phDecay = adaptiveDecay(n, int(ln.paramI[0]), ln.prog.Params.Tau, ln.prog.Params.FloorDiv)
		}
		ln.phOp = st.Emit
		ln.pool.run(ln.fnDraw)
		// An ant still at home may not recruit actively. Every compiled
		// algorithm commits the whole colony before it first recruits, so
		// the scan runs only for programs that leave ants uncommitted.
		if ln.commit[Home] != 0 {
			for i, a := range ln.active[:n] {
				if a && nest[i] == homeNest {
					return 0, emitErr(errRecruitHome, i, k)
				}
			}
		}
		for i := range counts {
			counts[i] = 0
		}
		counts[Home] = n

		// Recruitment matching: every ant recruits, so slot t is ant t and
		// no recruiter indirection exists; one dynamic call per round costs
		// nothing against the per-ant loops. The default matcher is the
		// paper's Algorithm 1 via the same implementation (and thus the
		// same draw sequence) as the scalar engine. The folds read the
		// pairs from the capture lists, so no tables are filled.
		ln.matcher.Match(n, ln.active, &ln.matchSrc, nil, nil)
	}

	// Observe: fold outcomes into the registers. The fold shards across the
	// lane's ant ranges — and, on recruit rounds, the adoption family's
	// sparse capture folds across chunks of the capture list — accumulating
	// commitment changes into per-shard delta slabs folded back in one
	// O(k·shards) pass (see lockFoldShard).
	ln.phPhase = phase
	ln.phAct = act
	ln.pool.run(ln.fnLockFold)
	ln.foldCommitDeltas()
	return st.Next, nil
}

// lockFoldShard applies one lockstep round's observe fold to one ant range
// or, on recruit rounds, to the shard's chunk of the capture list (see
// foldCaptureAdopts): each opcode folds the one kind of outcome Validate
// pairs it with, and ObserveNone folds nothing. Commitment changes go to the
// shard's delta slab; every other write targets the folding ant's own
// registers, and the only draws are the noisy perception hooks on the
// shard's scratch Source, reseeded from the ant's keyed word per call —
// which is what makes the fold safe to shard.
//
//hh:hotpath
//hh:draws noisy perception hooks only, each from the shard's scratch Source reseeded with the ant's keyed word; every other fold is draw-free
func (ln *lane) lockFoldShard(sh int) {
	lo, hi := int(ln.shardLo[sh]), int(ln.shardLo[sh+1])
	commit := ln.shCommit[sh*(ln.k+1) : (sh+1)*(ln.k+1)]
	for j := range commit {
		commit[j] = 0
	}
	act := ln.phAct
	nest := ln.nest
	count := ln.count
	quality := ln.quality
	counts := ln.counts
	qual := ln.qual
	switch ln.states[ln.phPhase].Observe {
	case ObserveDiscovery:
		for i := lo; i < hi; i++ {
			outNest := act[i]
			moveCommit(commit, nest, i, outNest)
			count[i] = int32(counts[outNest])
			quality[i] = qual[outNest]
		}
	case ObserveAdopt:
		ln.foldCaptureAdopts(sh, commit, 1)
	case ObserveCount:
		for i := lo; i < hi; i++ {
			count[i] = int32(counts[act[i]])
		}
	case ObserveAdoptZero:
		ln.foldCaptureAdopts(sh, commit, 0)
	case ObserveCountQual:
		for i := lo; i < hi; i++ {
			outNest := act[i]
			count[i] = int32(counts[outNest])
			quality[i] = qual[outNest]
		}
	case ObserveDiscoverNoisy:
		threshold := ln.prog.Params.Threshold
		r, src := ln.round, &ln.shSrc[sh].Source
		for i := lo; i < hi; i++ {
			outNest := act[i]
			moveCommit(commit, nest, i, outNest)
			count[i] = ln.perceiveCount(src, i, r, counts[outNest])
			quality[i] = ln.perceiveQuality(src, i, r, qual[outNest], threshold)
		}
	case ObserveCountNoisy:
		r, src := ln.round, &ln.shSrc[sh].Source
		for i := lo; i < hi; i++ {
			count[i] = ln.perceiveCount(src, i, r, counts[act[i]])
		}
	}
}

// memoBits sizes thresholdMemo at 2^memoBits entries, well above the keys one
// recruit round draws: ants at a nest share its count, so a round sees at
// most k+2 counts, each paired with one of the few values a quality register
// holds.
const memoBits = 6

// thresholdMemo is a direct-mapped cache of count-ratio thresholds, owned by
// one shard's draw call and kept on its stack, so the exact kernels (a
// 128-by-64-bit division each) run once per distinct input instead of once
// per ant. Entries are keyed on the kernel's full input — the count, plus
// the quality's bits for ThresholdMul — so a hit returns exactly what the
// kernel would; colliding keys only evict each other. One memo serves one
// kernel (and, for the adaptive draw, one decay).
type thresholdMemo [1 << memoBits]struct {
	q uint64 // math.Float64bits of the quality operand; 0 for count-only kernels
	c int32
	t rng.Threshold
}

// reset empties the memo: entry j gets the key (0, j+1), which hashes to slot
// j+1, never j, so no lookup can hit an entry before a miss has written it.
//
//hh:hotpath
func (m *thresholdMemo) reset() {
	for j := range m {
		m[j].q, m[j].c = 0, int32(j+1)
	}
}

// memoSlot hashes a memo key: the count's low bits, xored with a Fibonacci
// hash of the quality bits — zero for q = +0, so count-only keys index by
// count alone.
//
//hh:hotpath
func memoSlot(q uint64, c int32) uint32 {
	return (uint32(c) ^ uint32(q*0x9E3779B97F4A7C15>>(64-memoBits))) & (1<<memoBits - 1)
}

// find returns the memoized threshold of the key (q, c), if the memo holds
// it. It stays inlinable, so a hit costs no call; a miss computes the
// kernel at the call site and memoizes it with put.
//
//hh:hotpath
func (m *thresholdMemo) find(q uint64, c int32) (rng.Threshold, bool) {
	e := &m[memoSlot(q, c)]
	return e.t, e.c == c && e.q == q
}

// put memoizes t, the kernel's threshold for the key (q, c), and returns it.
//
//hh:hotpath
func (m *thresholdMemo) put(q uint64, c int32, t rng.Threshold) rng.Threshold {
	e := &m[memoSlot(q, c)]
	e.q, e.c, e.t = q, c, t
	return t
}

// searchShard is the fnSearch phase body of a lockstep search round: draw
// each ant's keyed search destination in one shard's ant range and tally the
// shard's populations into its slab of shCounts, summed by stepLockstep.
//
//hh:hotpath
func (ln *lane) searchShard(sh int) {
	lo, hi := int(ln.shardLo[sh]), int(ln.shardLo[sh+1])
	k := ln.k
	counts := ln.shCounts[sh*(k+1) : (sh+1)*(k+1)]
	for j := range counts {
		counts[j] = 0
	}
	key, r := ln.envKey, ln.round
	actNest := ln.actNest
	for i := lo; i < hi; i++ {
		dest := uint8(key.AntIntn(i, r, rng.DrawSearch, k) + 1)
		actNest[i] = dest
		counts[dest]++
	}
}

// drawActiveShard is the fnDraw phase body: the drawn-recruit loop over one
// shard's ant range (see drawActiveRange), then the range's stretch of the
// actNest snapshot of the advertised nests. The observe folds read a
// capturer's nest from the snapshot rather than from nest itself, because a
// simultaneous-model capturer can itself be captured and adopt mid-fold.
//
//hh:hotpath
func (ln *lane) drawActiveShard(sh int) {
	lo, hi := int(ln.shardLo[sh]), int(ln.shardLo[sh+1])
	ln.drawActiveRange(ln.phOp, lo, hi)
	copy(ln.actNest[lo:hi], ln.nest[lo:hi])
}

// drawActiveRange fills the active column for ants [lo, hi) of a drawn-recruit
// round, one specialized loop per opcode. Every ant's coin is its keyed
// DrawRecruit word of the round, accepted or rejected by the ant's
// threshold, and the loops are branch-free: a passive ant (quality register
// not positive, the scalar ants' active flag) gets ThresholdNever, which
// rejects every word, so its word is computed and ignored. A stream draw
// could not be skipped that way, because skipping it would shift every
// later draw of the stream.
//
// Every coin but ApproxN's compares against a fixed-point threshold that is
// either tabled (count-ratio below the crossover; the count is clamped to
// [0, n], whose end rows reject and accept exactly as an out-of-range count
// does) or memoized per call (thresholdMemo: count-ratio above the
// crossover, quality-weighted at every size, and the adaptive c/(c+decay)).
//
//hh:hotpath
func (ln *lane) drawActiveRange(op EmitOp, lo, hi int) {
	n := ln.n
	// Reslicing every column to the range gives the loops one shared length
	// and no per-column bounds checks; the words come from one AntRow.
	active := ln.active[lo:hi]
	quality := ln.quality[lo:hi]
	quality = quality[:len(active)]
	count := ln.count[lo:hi]
	count = count[:len(active)]
	row := ln.agentKey.AntRow(lo, ln.round, rng.DrawRecruit)
	switch op {
	case EmitRecruitPop:
		if popT := ln.popT; popT != nil {
			for j, c := range count {
				t := popT[min(max(int(c), 0), n)]
				if !(quality[j] > 0) {
					t = rng.ThresholdNever
				}
				var w uint64
				w, row = row.Next()
				active[j] = t.Accept(w)
			}
		} else {
			// Above the table crossover the threshold comes from the memoized
			// reciprocal, whose sentinels already resolve counts outside
			// (0, n), so no clamp is needed.
			var memo thresholdMemo
			memo.reset()
			for j, c := range count {
				t, ok := memo.find(0, c)
				if !ok {
					t = memo.put(0, c, ln.rcp.Threshold(int(c)))
				}
				if !(quality[j] > 0) {
					t = rng.ThresholdNever
				}
				var w uint64
				w, row = row.Next()
				active[j] = t.Accept(w)
			}
		}
	case EmitRecruitQual:
		var memo thresholdMemo
		memo.reset()
		for j, c := range count {
			// ThresholdMul emulates the scalar expression q·c/n including its
			// out-of-range and q=0 cases, so the loop has no guards at all.
			q := quality[j]
			qb := math.Float64bits(q)
			t, ok := memo.find(qb, c)
			if !ok {
				t = memo.put(qb, c, ln.rcp.ThresholdMul(q, int(c)))
			}
			var w uint64
			w, row = row.Next()
			active[j] = t.Accept(w)
		}
	case EmitRecruitAdaptive:
		// The decay was hoisted by stepLockstep (the phase clock is
		// colony-uniform), so only the count varies per ant. A threshold
		// decides exactly as the float coin does at every p, so noisy
		// out-of-range counts need no separate float path either.
		decay := ln.phDecay
		paramI := ln.paramI[lo:hi]
		paramI = paramI[:len(active)]
		var memo thresholdMemo
		memo.reset()
		for j, c := range count {
			t, ok := memo.find(0, c)
			//hh:floatok a miss compiles c/(c+decay), AdaptiveRecruitProbability's exact float expression, once per distinct count per draw call
			if !ok {
				cF := float64(c)
				t = memo.put(0, c, rng.NewThreshold(cF/(cF+decay)))
			}
			if !(quality[j] > 0) {
				t = rng.ThresholdNever
			}
			paramI[j]++
			var w uint64
			w, row = row.Next()
			active[j] = t.Accept(w)
		}
	case EmitRecruitApproxN:
		// Per-ant ñ estimates defeat tabling and reciprocals alike (the
		// kernel would be per ant); the float coin decides exactly as
		// ApproxNAnt's does, and accepts every p >= 1 without a clamp.
		paramF := ln.paramF[lo:hi]
		paramF = paramF[:len(active)]
		for j, c := range count {
			p := float64(c) / paramF[j] //hh:floatok per-ant ñ defeats fixed-point kernels; the float coin is ApproxNAnt's
			if !(quality[j] > 0) {
				p = 0
			}
			var w uint64
			w, row = row.Next()
			active[j] = rng.WordFloat64(w) < p
		}
	}
}

// foldCaptureAdopts applies shard sh's contiguous chunk of the matcher's
// capture list — the lockstep recruit-round adoption fold of ObserveAdopt
// (q = 1: a captured ant trusts its recruiter) and ObserveAdoptZero (q = 0):
// each captured ant whose captor advertises a nest different from its own
// moves there and loads quality q, with the commitment changes going to the
// delta slab commit. Chunks never share an ant, because listed captures are
// distinct (pinned by TestCaptureListMatchesCaptureTable), and reading the
// captor's nest from the actNest snapshot keeps the fold order-independent
// even for matchers whose captors can themselves be captured.
//
//hh:hotpath
func (ln *lane) foldCaptureAdopts(sh int, commit []int, q float64) {
	caps := ln.matcher.Captures()
	lo, hi := shardSpan(len(caps), sh, ln.shards)
	captors := ln.matcher.Captors()[lo:hi]
	nest := ln.nest
	actNest := ln.actNest
	for j, t32 := range caps[lo:hi] {
		i := int(t32) // slot t is ant t on the lockstep path
		if cb := captors[j]; cb != t32 && moveCommit(commit, nest, i, actNest[cb]) {
			ln.quality[i] = q
		}
	}
}
