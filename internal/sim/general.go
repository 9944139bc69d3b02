package sim

import (
	"fmt"
	"math"

	"github.com/gmrl/househunt/internal/rng"
)

// stepGeneral resolves one synchronous round for a colony with a per-ant
// state column. The round runs state-major: a histogram/scatter pass regroups
// the colony into per-state buckets, the emit and observe opcodes then
// dispatch once per occupied state (the per-ant jump tables they replace were
// the dominant pipeline stall of heterogeneous colonies), and an ant-order
// pass assembles the recruiting slot table between the two.
//
// Every O(n) pass — histogram, scatter, emit (search destinations
// included), slot assembly, observe — fans out across the lane's shards
// (contiguous ant ranges, lane.shardLo); the sequential spine between the
// parallel phases is the O(k·shards) reductions, the matcher, and the sparse
// capture and fault passes. Sharding is bit-identical to the sequential scan by construction:
// the bucket of state s is the concatenation of its per-shard segments in
// shard order (the same ants in the same ascending order), the per-shard
// population/commitment/finals tallies are order-free integer sums, recruiter
// slots are assigned from prefix-summed per-shard bases, and the first-error
// reduce picks by (state, ant) — exactly the sequential scan's first error.
//
// Randomness matches Engine.Step/resolve: search destinations and per-ant
// draws are keyed words of the ant's (logical) round, the same on any shard
// in any order; recruiting ants enter the slot table in ant order via the
// assembly pass; and the matcher draws from matchSrc in one call, only when
// the recruiting set is non-empty. Observe folds touch only the observing
// ant's registers, the shard's reseeded scratch Source, and the order-free
// commitment deltas, so bucket-order sharded folding is bit-identical too.
//
//hh:hotpath
//hh:draws matchSrc only when recruiters exist; search destinations, recruit and docility coins and perception hooks are keyed per (ant, logical round)
func (ln *lane) stepGeneral() error {
	n, k := ln.n, ln.k
	states := &ln.states
	state := ln.state
	nest := ln.nest
	actNest := ln.actNest
	counts := ln.counts
	numStates := ln.numExec
	shards := ln.shards

	// Pre-round fault pass: wake the sleepers and fire the crashes scheduled
	// for this round, before the colony is regrouped — the transitions must be
	// visible to this round's emit, exactly as the scalar wrapper decides in
	// Act. Waking restores the ant's initial program state (registers were
	// never touched while it slept, so it starts fresh like the scalar
	// wrapper's never-invoked inner agent) and starts its clock at logical
	// round 1; crashAnt removes the ant from the census and parks it in the
	// crashed synthetic state. Both lists are small — O(victims), not O(n).
	if ln.faulted {
		r := int32(ln.round)
		for idx, i32 := range ln.sleepAnts {
			if ln.wakeAt[idx] == r {
				i := int(i32)
				// Guard: only an ant still sleeping wakes. A schedule may have
				// crashed the sleeper (or crashed and restarted it — already
				// awake); the scalar wrapper's wake branch requires the
				// sleeping status identically.
				if state[i] != ln.sleepSt {
					continue
				}
				state[i] = ln.initState(i)
				ln.base[i] = r - 1
			}
		}
		for idx, i32 := range ln.crashAnts {
			if ln.crashAt[idx] == r {
				i := int(i32)
				// Guard: an ant a schedule already crashed must not leave the
				// census twice. The match is exact (== r, not >=): a schedule
				// restarting the ant AFTER its static crash round must not
				// re-fire the static crash — the scalar wrapper checks
				// round == crashAt under the same status guard.
				if state[i] == ln.crashSt {
					continue
				}
				ln.crashAnt(i)
			}
		}
	}

	// Regroup the colony by state: per-shard histogram, sequential prefix,
	// per-shard scatter into the precomputed segments. The prefix fills
	// segment bounds and scatter cursors so that state s's bucket is the
	// concatenation of its per-shard segments (each a subset of that shard's
	// own ant range, ascending), then detects a sole occupied state and
	// whether any occupied state searches.
	ln.pool.run(ln.fnHist)
	segOff := ln.segOff
	running := int32(0)
	sole := -1
	for s := 0; s < numStates; s++ {
		total := int32(0)
		for sh := 0; sh < shards; sh++ {
			segOff[s*shards+sh] = running
			ln.shCur[sh*numStates+s] = running
			bank := ln.shCnt[sh*4*numStates:]
			c := bank[s] + bank[numStates+s] + bank[2*numStates+s] + bank[3*numStates+s]
			running += c
			total += c
		}
		if int(total) == n {
			sole = s
		}
	}
	segOff[numStates*shards] = running
	bkt := ln.bktAnts[:n]
	if sole >= 0 {
		// The whole colony occupies one state (common in the converged tail,
		// where every ant sits in an absorbing recruit state): the bucket IS
		// the identity permutation — every segment (sole, sh) is exactly the
		// shard's own ant range — so the scatter collapses to reusing the
		// precomputed identity and, below, most of the slot-assembly work
		// degenerates too.
		bkt = ln.iota32
	} else {
		ln.pool.run(ln.fnScatter)
	}

	// Emit per occupied segment, sharded (see emitShard). actNest receives
	// each ant's advertised nest; recruiters are classified into isRecr/actBit
	// and assembled into the ant-order slot table afterwards. Every ant
	// belongs to exactly one segment, so every isRecr entry is rewritten each
	// round.
	ln.phBkt = bkt
	ln.pool.run(ln.fnEmit)

	// Reduce the emit phase: population tallies and recruiter counts are
	// order-free sums, the recruiter counts prefix-sum into the slot bases the
	// assembly pass writes from, and a parked invalid emit materializes here —
	// (state, ant)-minimal across shards, which is exactly the sequential
	// scan's first error — keeping fmt.Errorf off the parallel loops.
	for j := range counts {
		counts[j] = 0
	}
	nRecr := 0
	sawTransport := false
	errSh := -1
	for sh := 0; sh < shards; sh++ {
		slab := ln.shCounts[sh*(k+1) : (sh+1)*(k+1)]
		for j, v := range slab {
			counts[j] += v
		}
		ln.shSlotBase[sh] = int32(nRecr)
		nRecr += int(ln.shNRecr[sh])
		if ln.shTrans[sh] != 0 {
			sawTransport = true
		}
		if ln.shErrKind[sh] != errNone && (errSh < 0 ||
			ln.shErrState[sh] < ln.shErrState[errSh] ||
			(ln.shErrState[sh] == ln.shErrState[errSh] && ln.shErrAnt[sh] < ln.shErrAnt[errSh])) {
			errSh = sh
		}
	}
	if errSh >= 0 {
		return emitErr(ln.shErrKind[errSh], int(ln.shErrAnt[errSh]), k)
	}

	// Assemble the recruiting slot table in ant order — the matcher's slot
	// space must list recruiters exactly as the scalar engine's action loop
	// encounters them; each shard writes its own slot range starting at its
	// prefix-summed base, so the concatenation is the sequential table (see
	// assembleShard). A sole-state round degenerates to identities: slot t is
	// ant t (or there are no recruiters at all), so the table is the
	// precomputed identity permutation and two column copies.
	rec := ln.recruiters[:n]
	carries := ln.carries
	switch {
	case carries == nil && nRecr == n:
		rec = ln.iota32
		ln.phMode = asmIdentity
	case nRecr == 0:
		ln.phMode = asmNone
	default:
		ln.phMode = asmScan
	}
	ln.pool.run(ln.fnAssemble)
	nR := nRecr
	counts[Home] = nR

	// Recruitment matching over the recruiting set, in slot space. The
	// scalar engine skips the matcher entirely for an empty set and selects
	// the carry-aware form only when some slot carries more than one ant;
	// mirroring both keeps matchSrc in sync on all-goto rounds and keeps
	// arbitrary matchers on exactly the scalar call sequence. (For the
	// default Algorithm 1 pairing the dispatch is immaterial: MatchCarry
	// with all-ones carries draws exactly like Match, a pinned property.)
	if nR > 0 {
		//hh:draws matcher dispatch mirrors the scalar call sequence; MatchCarry with all-ones carries draws exactly like Match (a pinned property)
		if anyCarry := sawTransport && ln.prog.Params.QuorumCarry > 1; anyCarry {
			if ln.carryM == nil {
				return fmt.Errorf("transport (carry > 1) unsupported by matcher %q", ln.matcher.Name())
			}
			ln.match(nR, carries)
		} else {
			ln.match(nR, nil)
		}
	}

	// Resolve each slot's outcome nest: the assembly pass preloaded every
	// slot with its own advertised nest, so only captured slots need a
	// rewrite — their capturer's advertised entry, always read from the
	// pristine actNest column (a simultaneous-model capturer can itself be
	// captured, so chaining through slotNest could read a rewritten value).
	// Captures are sparse, so walking the matcher's capture list is a
	// handful of writes. The observe folds then reach a recruiter's outcome
	// through slotOf → slotNest, two loads instead of a four-deep capture
	// walk.
	slotNest := ln.slotNest
	if nR > 0 {
		captors := ln.matcher.Captors()
		for j, t32 := range ln.matcher.Captures() {
			if cb := captors[j]; cb != t32 {
				slotNest[t32] = actNest[rec[cb]]
			}
		}
	}

	// Observe per occupied segment, sharded (see observeShard): fold outcomes
	// into the registers and select successors. Commitment changes accumulate
	// in per-shard delta slabs and the Final-state tallies in per-shard
	// counters, both reduced here.
	ln.phCountHome = int32(nR)
	ln.pool.run(ln.fnObserve)
	finals := 0
	for sh := 0; sh < shards; sh++ {
		finals += int(ln.shFinals[sh])
	}
	ln.foldCommitDeltas()

	// Capture pass: the adoption-family folds (adopt, latch, pend, the
	// recruit-nest learn, the quorum wake and the transport submit) act only
	// on captured ants, whose buckets above therefore folded nothing but
	// successors. Captures are sparse, so dispatching per captured slot on
	// the state the ant emitted from (recorded in preState — the state
	// column already holds next round's values) touches a fraction of the
	// colony. Fold order across captured ants is immaterial: each fold
	// writes only its own ant's registers (commit tallies are order-free)
	// and the docility coins are keyed words of the captured ant.
	commit := ln.commit
	quality := ln.quality
	nestT := ln.nestT
	isFinal := &ln.final
	preState := ln.preState
	if nR > 0 {
		captors := ln.matcher.Captors()
		for j, t32 := range ln.matcher.Captures() {
			cb := captors[j]
			if cb == t32 {
				continue // self-pairs adopt nothing
			}
			i := int(rec[t32])
			outNest := actNest[rec[cb]]
			st := &states[preState[i]]
			switch st.Observe {
			case ObserveNestLatch:
				moveCommit(commit, nest, i, outNest)
			case ObserveAdopt:
				if moveCommit(commit, nest, i, outNest) {
					quality[i] = 1
				}
			case ObserveAdoptZero:
				if moveCommit(commit, nest, i, outNest) {
					quality[i] = 0
				}
			case ObserveAdoptPend:
				if moveCommit(commit, nest, i, outNest) {
					state[i] = st.NextB // enter the pending chain
					finals += int(isFinal[st.NextB]) - int(isFinal[st.Next])
				}
			case ObserveRecruitNest:
				nestT[i] = outNest
			case ObserveQuorumAdopt:
				moveCommit(commit, nest, i, outNest)
				quality[i] = 1
			case ObserveQuorumTransport:
				// The docility coin is the CAPTURED ant's DrawDocility word,
				// exactly like QuorumAnt's submit check, on the precompiled
				// fixed-point threshold.
				if ln.docT.Accept(ln.agentKey.AntWord(i, ln.antRound(i), rng.DrawDocility)) {
					if moveCommit(commit, nest, i, outNest) {
						state[i] = st.NextB // demote to canvasser of the new nest
						finals += int(isFinal[st.NextB]) - int(isFinal[st.Next])
					}
					quality[i] = 1
				}
			}
		}
	}

	// Track every crash-fated ant's last known candidate nest from this
	// round's outcome — before AND after the crash fires, mirroring the
	// scalar wrapper's Observe: a live ant records where it went, and a dead
	// one records where recruiters dragged the corpse. The pass reads only
	// resolved columns (actNest for searchers/goers, the slot table for
	// recruiters; slotOf/slotNest are valid for every recruiter in every
	// assembly mode). It walks the static crash victims, or every ant under
	// an adaptive schedule, because then ANY ant can crash and its last known
	// nest must be current when the mutation pass below runs.
	if ln.faulted {
		lastNest := ln.lastNest
		isRecr := ln.isRecr
		slotOf := ln.slotOf
		fated := ln.crashAnts
		if ln.sched != nil {
			fated = ln.iota32
		}
		for _, i32 := range fated {
			i := int(i32)
			outNest := actNest[i]
			if isRecr[i] != 0 {
				outNest = slotNest[slotOf[i]]
			}
			if outNest != homeNest {
				lastNest[i] = outNest
			}
		}
	}
	ln.finals = finals
	// Adaptive mutation pass: the schedule observes the fully resolved round
	// (census tallies, decided count) and its ops apply before runReplicate
	// takes the round's convergence census — the scalar engine's RoundHook
	// position. Sequential by construction: no shard or worker fans this out.
	if ln.sched != nil {
		if err := ln.applySchedule(); err != nil {
			return err
		}
	}
	return nil
}

// Slot-assembly modes (lane.phMode), selected by stepGeneral's emit reduce.
const (
	asmIdentity uint8 = iota // every ant recruits, no transports: slot t = ant t
	asmNone                  // no recruiters: clear slotOf
	asmScan                  // compacting scan, filling the carry column if the lane has one
)

// Emit-phase error kinds parked in lane.shErrKind by parkErr. Each is an
// emit that names the home nest where it needs a candidate: a nest column
// holds ids 0..k only (search draws, captors' nests and relocate targets
// checked against 1..k), so Home is the one invalid id an emit can read.
const (
	errNone uint8 = iota
	errGotoNest
	errGotoScratch
	errRecruitHome
	errTransport
)

// emitErr is the error of ant i's invalid emit of the given kind in a
// k-nest environment; both stepping paths report through it.
//
//hh:coldpath
func emitErr(kind uint8, i, k int) error {
	switch kind {
	case errGotoNest:
		return fmt.Errorf("ant %d: go(0): nest out of range 1..%d", i, k)
	case errGotoScratch:
		return fmt.Errorf("ant %d: go(0): scratch nest out of range 1..%d", i, k)
	case errRecruitHome:
		return fmt.Errorf("ant %d: recruit(1,0): cannot actively recruit for the home nest", i)
	default: // errTransport
		return fmt.Errorf("ant %d: transport(0): nest out of range 1..%d", i, k)
	}
}

// parkErr records the first invalid emit a shard's scan encounters as a
// compact (kind, state, ant) record; stepGeneral's reduce min-picks across
// shards by (state, ant) — within one state, lower shards hold lower ant
// indices — and materializes the error there, so the parallel scan stays
// allocation-free and reports exactly the sequential scan's first error.
//
//hh:coldpath
func (ln *lane) parkErr(sh int, kind uint8, s, i int) {
	if ln.shErrKind[sh] != errNone {
		return
	}
	ln.shErrKind[sh] = kind
	ln.shErrState[sh] = int32(s)
	ln.shErrAnt[sh] = int32(i)
}

// histShard is the fnHist phase body: count one shard's ant range into the
// shard's own four interleaved histogram banks (consecutive ants usually
// share a state, and a single-bank cnt[s]++ serializes on store-to-load
// forwarding).
//
//hh:hotpath
func (ln *lane) histShard(sh int) {
	numStates := ln.numExec
	cnt := ln.shCnt[sh*4*numStates : (sh+1)*4*numStates]
	for j := range cnt {
		cnt[j] = 0
	}
	state := ln.state
	i, hi := int(ln.shardLo[sh]), int(ln.shardLo[sh+1])
	for ; i+4 <= hi; i += 4 {
		cnt[int(state[i])]++
		cnt[numStates+int(state[i+1])]++
		cnt[2*numStates+int(state[i+2])]++
		cnt[3*numStates+int(state[i+3])]++
	}
	for ; i < hi; i++ {
		cnt[int(state[i])]++
	}
}

// scatterShard is the fnScatter phase body: write one shard's ants into their
// states' segments, cursors preset by the sequential prefix. Shards write
// disjoint bkt ranges by construction (each segment is sized by the shard's
// own histogram bank).
//
//hh:hotpath
func (ln *lane) scatterShard(sh int) {
	numStates := ln.numExec
	cur := ln.shCur[sh*numStates : (sh+1)*numStates]
	state := ln.state
	bkt := ln.bktAnts[:ln.n]
	lo, hi := int(ln.shardLo[sh]), int(ln.shardLo[sh+1])
	for i := lo; i < hi; i++ {
		s := state[i]
		bkt[cur[s]] = int32(i)
		cur[s]++
	}
}

// emitShard is the fnEmit phase body: run the emit dispatch over one shard's
// segments. For every state the members slice is the shard's own contiguous
// segment of that state's bucket, so the shard touches exactly its own ants;
// population tallies, the recruiter count, the transport flag and at most one
// parked error go to the shard's slabs, reduced sequentially afterwards. A
// searcher's destination and a drawn recruit's coin are the ant's keyed
// words.
//
//hh:hotpath
func (ln *lane) emitShard(sh int) {
	n, k := ln.n, ln.k
	numStates := ln.numExec
	shards := ln.shards
	states := &ln.states
	segOff := ln.segOff
	bkt := ln.phBkt
	nest := ln.nest
	actNest := ln.actNest
	quality := ln.quality
	count := ln.count
	key := ln.agentKey
	isRecr := ln.isRecr
	actBit := ln.actBit
	preState := ln.preState
	counts := ln.shCounts[sh*(k+1) : (sh+1)*(k+1)]
	for j := range counts {
		counts[j] = 0
	}
	ln.shErrKind[sh] = errNone
	ln.shTrans[sh] = 0
	nRecr := 0
	for s := 0; s < numStates; s++ {
		members := bkt[segOff[s*shards+sh]:segOff[s*shards+sh+1]]
		if len(members) == 0 {
			continue
		}
		if ln.faulted && uint8(s) == ln.crashSt {
			// A crashed ant walks to the last candidate nest it knew, or —
			// if it never learned one, or its corpse was dragged back home —
			// waits passively in the home-nest pairing, exactly like the
			// scalar fault wrapper. The bucket mixes both behaviours, so it
			// cannot reuse a generic emit loop.
			lastNest := ln.lastNest
			for _, i32 := range members {
				i := int(i32)
				if dest := lastNest[i]; dest != homeNest {
					actNest[i] = dest
					counts[dest]++
					isRecr[i] = 0
				} else {
					actNest[i] = homeNest
					isRecr[i] = 1
					actBit[i] = false
					preState[i] = uint8(s)
					nRecr++
				}
			}
			continue
		}
		st := &states[s]
		switch op := st.Emit; op {
		case EmitSearch:
			// The environment key and the lane round: search draws are the
			// environment's, not the ant's, so they need no clock offset.
			envKey, r := ln.envKey, ln.round
			for _, i32 := range members {
				i := int(i32)
				dest := uint8(envKey.AntIntn(i, r, rng.DrawSearch, k) + 1)
				actNest[i] = dest
				counts[dest]++
				isRecr[i] = 0
			}
		case EmitGotoNest, EmitGotoScratch:
			// go(nest) goes to the nest register and go(scratch) to
			// Algorithm 2's scratch nest; either errs for the home nest, the
			// only id outside 1..k a nest column holds.
			dests, kind := nest, errGotoNest
			if op == EmitGotoScratch {
				dests, kind = ln.nestT, errGotoScratch
			}
			for _, i32 := range members {
				i := int(i32)
				dest := dests[i]
				if dest == homeNest {
					ln.parkErr(sh, kind, s, i)
					continue
				}
				actNest[i] = dest
				counts[dest]++
				isRecr[i] = 0
			}
		default:
			// Every recruit advertises its nest register. recruit(b) and
			// transport fix the active bit; a drawn recruit accepts the ant's
			// keyed DrawRecruit word by a threshold — tabled, or memoized per
			// bucket above the table crossover and for the quality-weighted
			// draw, whose kernel emulates q·c/n including q = 0 — or, where
			// per-ant phase clocks or ñ estimates defeat the kernels, by the
			// scalar ant's float coin. A passive ant (quality not positive)
			// never accepts. One coin loop per opcode writes the active bits,
			// then one classification serves every recruit.
			nRecr += len(members)
			recr, errKind := uint8(1), errRecruitHome
			switch op {
			case EmitRecruitBit, EmitRecruitTransport:
				bit := st.Arg == 1
				if op == EmitRecruitTransport {
					recr, errKind, bit = 2, errTransport, true
					ln.shTrans[sh] = 1
				}
				for _, i32 := range members {
					actBit[i32] = bit
				}
			case EmitRecruitPop:
				popT := ln.popT
				var memo thresholdMemo
				memo.reset()
				for _, i32 := range members {
					i := int(i32)
					c := count[i]
					var t rng.Threshold
					if popT != nil {
						t = popT[min(max(int(c), 0), n)]
					} else {
						var ok bool
						if t, ok = memo.find(0, c); !ok {
							t = memo.put(0, c, ln.rcp.Threshold(int(c)))
						}
					}
					if !(quality[i] > 0) {
						t = rng.ThresholdNever
					}
					actBit[i] = t.Accept(key.AntWord(i, ln.antRound(i), rng.DrawRecruit))
				}
			case EmitRecruitQual:
				var memo thresholdMemo
				memo.reset()
				for _, i32 := range members {
					i := int(i32)
					q, c := quality[i], count[i]
					qb := math.Float64bits(q)
					t, ok := memo.find(qb, c)
					if !ok {
						t = memo.put(qb, c, ln.rcp.ThresholdMul(q, int(c)))
					}
					actBit[i] = t.Accept(key.AntWord(i, ln.antRound(i), rng.DrawRecruit))
				}
			case EmitRecruitAdaptive:
				tau, floorDiv := ln.prog.Params.Tau, ln.prog.Params.FloorDiv
				paramI := ln.paramI
				for _, i32 := range members {
					i := int(i32)
					p := AdaptiveRecruitProbability(n, int(count[i]), int(paramI[i]), tau, floorDiv)
					paramI[i]++
					if !(quality[i] > 0) {
						p = 0
					}
					actBit[i] = rng.WordFloat64(key.AntWord(i, ln.antRound(i), rng.DrawRecruit)) < p
				}
			case EmitRecruitApproxN:
				paramF := ln.paramF
				for _, i32 := range members {
					i := int(i32)
					p := float64(count[i]) / paramF[i] //hh:floatok per-ant ñ defeats fixed-point kernels; the float coin is ApproxNAnt's
					if !(quality[i] > 0) {
						p = 0
					}
					actBit[i] = rng.WordFloat64(key.AntWord(i, ln.antRound(i), rng.DrawRecruit)) < p
				}
			}
			for _, i32 := range members {
				i := int(i32)
				adv := nest[i]
				if actBit[i] && adv == homeNest {
					ln.parkErr(sh, errKind, s, i)
					continue
				}
				actNest[i] = adv
				isRecr[i] = recr
				preState[i] = uint8(s)
			}
		}
	}
	ln.shNRecr[sh] = int32(nRecr)
}

// assembleShard is the fnAssemble phase body: build one shard's stretch of
// the recruiting slot table. The compacting scan uses guarded writes (the
// sequential pass's branch-free cursor trick writes one slot past each
// non-recruiter — harmless when overwritten later in the same scan, but a
// cross-shard data race at shard boundaries), starting at the shard's
// prefix-summed slot base so the concatenation across shards is exactly the
// sequential ant-order table.
//
//hh:hotpath
func (ln *lane) assembleShard(sh int) {
	lo, hi := int(ln.shardLo[sh]), int(ln.shardLo[sh+1])
	slotOf := ln.slotOf
	switch ln.phMode {
	case asmIdentity:
		// Every ant recruits (absorbing recruit states, canvass rounds):
		// slot t is ant t, so the table is the identity permutation and two
		// column copies.
		copy(slotOf[lo:hi], ln.iota32[lo:hi])
		copy(ln.active[lo:hi], ln.actBit[lo:hi])
		copy(ln.slotNest[lo:hi], ln.actNest[lo:hi])
	case asmNone:
		for i := lo; i < hi; i++ {
			slotOf[i] = -1
		}
	case asmScan:
		// A transporting lane also fills each slot's carry capacity: the
		// quorum carry for a transport, one ant for any other recruit.
		rec := ln.recruiters[:ln.n]
		active := ln.active
		slotNest := ln.slotNest
		actNest := ln.actNest
		actBit := ln.actBit
		isRecr := ln.isRecr
		carries := ln.carries
		qc := ln.prog.Params.QuorumCarry
		w := int(ln.shSlotBase[sh])
		for i := lo; i < hi; i++ {
			r := isRecr[i]
			if r == 0 {
				slotOf[i] = -1
				continue
			}
			rec[w] = int32(i)
			active[w] = actBit[i]
			slotNest[w] = actNest[i]
			if carries != nil {
				c := 1
				if r == 2 {
					c = qc
				}
				carries[w] = c
			}
			slotOf[i] = int32(w)
			w++
		}
	}
}

// observeShard is the fnObserve phase body: fold outcomes into the registers
// and select successors over one shard's segments, one opcode dispatch per
// occupied segment. Each opcode folds the one kind of outcome Validate pairs
// it with: a searcher's or goer's outcome is its advertised nest and that
// nest's end-of-round population, a recruiter's the home population, exactly
// as Engine.resolve fills Outcome.Count. Captures reach recruiters through the
// capture pass, except under ObserveInform, which folds both kinds and reads
// a captured recruiter's outcome nest — its capturer's advertised nest — from
// the slotNest column here. Commitment changes go to the shard's
// delta slab and Final-state entries to its finals counter; every other
// write targets the folding ant's own registers, and the only draws are the
// perception hooks on the shard's scratch Source, reseeded from the ant's
// keyed word per call.
//
//hh:hotpath
//hh:draws perception hooks only, each from the shard's scratch Source reseeded with the ant's keyed word; every ant is folded by exactly one shard
func (ln *lane) observeShard(sh int) {
	k := ln.k
	numStates := ln.numExec
	shards := ln.shards
	states := &ln.states
	segOff := ln.segOff
	bkt := ln.phBkt
	state := ln.state
	nest := ln.nest
	actNest := ln.actNest
	counts := ln.counts
	count := ln.count
	quality := ln.quality
	qual := ln.qual
	nestT := ln.nestT
	countT := ln.countT
	isFinal := &ln.final
	countHome := ln.phCountHome
	commit := ln.shCommit[sh*(k+1) : (sh+1)*(k+1)]
	for j := range commit {
		commit[j] = 0
	}
	finals := 0
	for s := 0; s < numStates; s++ {
		members := bkt[segOff[s*shards+sh]:segOff[s*shards+sh+1]]
		if len(members) == 0 {
			continue
		}
		if ln.faulted && uint8(s) == ln.byzSrchSt {
			// The Byzantine search fold: latch the first BAD nest discovered
			// as the lure target (in the nest register, which the luring
			// state's recruit emit advertises) — without touching the
			// commitment census, because Byzantine ants are excluded from it
			// from round one. In an all-good environment nothing ever
			// latches, and the adversary searches forever, exactly like the
			// scalar fault wrapper's Byzantine status.
			for _, i32 := range members {
				i := int(i32)
				if outNest := actNest[i]; qual[outNest] == 0 {
					nest[i] = outNest
					state[i] = ln.byzRecrSt
				}
			}
			continue
		}
		st := &states[s]
		next0 := st.Next
		switch st.Observe {
		case ObserveNone, ObserveAdopt, ObserveAdoptZero, ObserveAdoptPend,
			ObserveNestLatch, ObserveQuorumAdopt, ObserveQuorumTransport:
			// Padding calls discard their outcome, and the recruit folds act
			// on captured ants only: the capture pass folds them, redirecting
			// the ants whose fold branches and adjusting the finals tally.
			// Successors are uniform here, and a self-loop (the synthetic
			// fault states, absorbing waits, Algorithm 2's final state)
			// writes nothing at all.
			if next0 != uint8(s) {
				for _, i32 := range members {
					state[i32] = next0
				}
			}
			finals += int(isFinal[next0]) * len(members)
		case ObserveDiscovery:
			for _, i32 := range members {
				i := int(i32)
				outNest := actNest[i]
				moveCommit(commit, nest, i, outNest)
				count[i] = int32(counts[outNest])
				quality[i] = qual[outNest]
				state[i] = next0
			}
			finals += int(isFinal[next0]) * len(members)
		case ObserveCount:
			for _, i32 := range members {
				i := int(i32)
				count[i] = int32(counts[actNest[i]])
				state[i] = next0
			}
			finals += int(isFinal[next0]) * len(members)
		case ObserveCountQual:
			for _, i32 := range members {
				i := int(i32)
				outNest := actNest[i]
				count[i] = int32(counts[outNest])
				quality[i] = qual[outNest]
				state[i] = next0
			}
			finals += int(isFinal[next0]) * len(members)
		case ObserveDiscoverBranch:
			for _, i32 := range members {
				i := int(i32)
				outNest := actNest[i]
				moveCommit(commit, nest, i, outNest)
				count[i] = int32(counts[outNest])
				q := qual[outNest]
				quality[i] = q
				next := next0
				if q == 0 {
					next = st.NextB
				}
				state[i] = next
				finals += int(isFinal[next])
			}
		case ObserveRecruitNest:
			// Uncaptured ants learn their own advertised nest; the capture
			// pass rewrites captured ants.
			for _, i32 := range members {
				i := int(i32)
				nestT[i] = actNest[i]
				state[i] = next0
			}
			finals += int(isFinal[next0]) * len(members)
		case ObserveCompareR2:
			for _, i32 := range members {
				i := int(i32)
				countT[i] = int32(counts[actNest[i]])
				next := next0
				switch {
				case nestT[i] == nest[i] && countT[i] >= count[i]:
					count[i] = countT[i] // Case 1: re-baseline
				case nestT[i] == nest[i]:
					next = st.NextB // Case 2: population dropped
				default:
					// Case 3: recruited to another nest.
					moveCommit(commit, nest, i, nestT[i])
					next = st.NextC
				}
				state[i] = next
				finals += int(isFinal[next])
			}
		case ObserveRecountRebase, ObserveRecountLiteral:
			rebase := st.Observe == ObserveRecountRebase
			for _, i32 := range members {
				i := int(i32)
				outCount := int32(counts[actNest[i]])
				next := next0
				if outCount < countT[i] {
					next = st.NextB
				} else if rebase {
					count[i] = outCount
				}
				state[i] = next
				finals += int(isFinal[next])
			}
		case ObserveFinalEq:
			for _, i32 := range members {
				i := int(i32)
				next := next0
				if countHome == count[i] {
					next = st.NextB
				}
				state[i] = next
				finals += int(isFinal[next])
			}
		case ObserveDiscoverNoisy:
			threshold := ln.prog.Params.Threshold
			src := &ln.shSrc[sh].Source
			for _, i32 := range members {
				i := int(i32)
				outNest := actNest[i]
				moveCommit(commit, nest, i, outNest)
				r := ln.antRound(i)
				count[i] = ln.perceiveCount(src, i, r, counts[outNest])
				quality[i] = ln.perceiveQuality(src, i, r, qual[outNest], threshold)
				state[i] = next0
			}
			finals += int(isFinal[next0]) * len(members)
		case ObserveCountNoisy:
			src := &ln.shSrc[sh].Source
			for _, i32 := range members {
				i := int(i32)
				count[i] = ln.perceiveCount(src, i, ln.antRound(i), counts[actNest[i]])
				state[i] = next0
			}
			finals += int(isFinal[next0]) * len(members)
		case ObserveDiscoverQuorum:
			mult := ln.prog.Params.QuorumMult
			src := &ln.shSrc[sh].Source
			for _, i32 := range members {
				i := int(i32)
				outNest := actNest[i]
				moveCommit(commit, nest, i, outNest)
				outCount := int32(counts[outNest])
				count[i] = outCount
				quality[i] = ln.perceiveQuality(src, i, ln.antRound(i), qual[outNest], 0.5)
				// Self-calibrate the quorum threshold into the countT scratch
				// register: QuorumAnt's T = max(⌊mult·count⌋, count+2).
				thr := int32(mult * float64(outCount)) //hh:floatok quorum self-calibration mirrors QuorumAnt's float threshold formula, T = max(⌊mult·count⌋, count+2)
				if thr < outCount+2 {
					thr = outCount + 2
				}
				countT[i] = thr
				state[i] = next0
			}
			finals += int(isFinal[next0]) * len(members)
		case ObserveQuorumCheck:
			for _, i32 := range members {
				i := int(i32)
				outCount := int32(counts[actNest[i]])
				count[i] = outCount
				next := next0
				if quality[i] > 0 && countT[i] > 0 && outCount >= countT[i] {
					next = st.NextB // quorum reached: promote to transport
				}
				state[i] = next
				finals += int(isFinal[next])
			}
		case ObserveInform:
			// The rumor-spreading fold: a good outcome nest informs the ant
			// (a captured waiter learns its capturer's nest from the slot
			// table — the second information channel). Informed ants commit;
			// the capture pass skips this opcode because the fold already
			// resolved the capture here.
			recruited := recruitEmit(st.Emit)
			for _, i32 := range members {
				i := int(i32)
				outNest := actNest[i]
				if recruited {
					outNest = ln.slotNest[ln.slotOf[i]]
				}
				next := st.NextB
				if qual[outNest] > 0 {
					moveCommit(commit, nest, i, outNest)
					next = next0
				}
				state[i] = next
				finals += int(isFinal[next])
			}
		}
	}
	ln.shFinals[sh] = int32(finals)
}
