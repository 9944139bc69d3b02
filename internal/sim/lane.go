package sim

import (
	"fmt"
	"math"

	"github.com/gmrl/househunt/internal/rng"
)

// lane is one worker's flat-array state: a full colony's registers plus the
// per-round scratch, reused across replicates.
//
// The per-ant state column is the execution model; the lockstep path (taken
// for programs with static successors, where the column would stay uniform by
// construction) models it as the single phase variable of runReplicate and
// keeps its specialized per-opcode loops. The general path dispatches per ant
// and maintains the recruiter/slot indirection: recruiting ants are appended
// to recruiters in ant order, so slot t is the t-th recruiting ant exactly as
// in Engine.resolve, and matching draws consume matchSrc in the scalar
// engine's order.
//
// The lane holds no per-ant RNG state. Its per-ant draws are keyed words of
// agentKey and its search destinations keyed words of envKey, at each ant's
// logical round: the lane round, minus the ant's clock offset in base when
// the lane has one (see base). A perception hook draws from its shard's
// scratch Source in shSrc, reseeded from the ant's keyed word before each
// call.
type lane struct {
	prog Program
	env  Environment
	qual []float64 // quality by nest id (index 0 = home)
	n, k int

	lockstep bool
	decides  bool

	envKey, agentKey rng.Key
	matchSrc         rng.Source
	// shSrc holds one scratch Source per shard for the perception hooks,
	// padded to a cache line so shards never share one; nil unless the
	// program draws per-ant randomness.
	shSrc []paddedSource
	// base is each ant's clock offset: ant i's logical round is
	// round - base[i], the clock a scalar schedAnt hands its inner agent.
	// Only a lane with sleepers or a schedule has one: a sleeper wakes at
	// base = wake round - 1 and a restarted ant at base = the restart round,
	// so either re-enters at logical round 1 with the draws it was born
	// with. Every other ant's logical round is the lane round.
	base []int32

	// Register file (struct of arrays); every nest column holds ids 0..k in
	// one byte (k <= MaxBatchNests). state is not allocated on the lockstep
	// path (the shared PFSM state lives in runReplicate's phase variable), nor
	// are nestT and countT, Algorithm 2's cross-round scratch registers.
	// paramI and paramF are the §6 extension parameter columns — AdaptiveAnt's
	// phase clock and ApproxNAnt's private ñ estimate — materialized only when
	// the program's opcodes read them.
	state   []uint8
	nest    []uint8
	count   []int32
	quality []float64
	nestT   []uint8
	countT  []int32
	paramI  []int32
	paramF  []float64

	// Per-round scratch.
	actNest    []uint8 // the nest advertised by this round's search/go/recruit
	counts     []int   // end-of-round population per nest
	commit     []int   // commitment census, maintained incrementally
	recruiters []int32 // slot -> ant index (general path only)
	slotOf     []int32 // ant index -> recruiter slot this round, -1 otherwise (general path only)
	active     []bool  // recruit(1, ·) per slot (per ant on the lockstep path)
	carries    []int   // carry capacity per slot; nil unless the program transports
	finals     int     // ants currently in Final states (deciding programs)

	// State-bucket scratch of the general path (nil on the lockstep path):
	// each round the colony is regrouped by PFSM state so the emit and
	// observe opcodes dispatch once per occupied state instead of once per
	// ant — the per-ant jump tables were the dominant stall of heterogeneous
	// colonies. bktAnts holds the ant indices grouped by state (ascending
	// within a group, because the scatter writes each shard's contiguous ant
	// range into its own precomputed segment); isRecr and actBit carry each
	// recruiter's classification from the emit phase to the ant-order
	// slot-assembly pass.
	//
	// The bucket of state s is the concatenation of its per-shard segments:
	// segment (s, sh) spans bkt[segOff[s*shards+sh]:segOff[s*shards+sh+1]]
	// (the trailing segOff entry is n), so segments of one state are
	// adjacent and the emit/observe shard loops walk exactly the sequential
	// bucket split at shard boundaries.
	bktAnts  []int32
	segOff   []int32 // numExec*shards+1 segment bounds, state-major
	iota32   []int32 // the identity permutation 0..n-1, immutable after construction
	isRecr   []uint8 // 0 = not recruiting, 1 = recruit, 2 = transport
	actBit   []bool
	preState []uint8 // per recruited ant: the state it emitted from, for the capture pass
	slotNest []uint8 // per-slot resolved outcome nest (capturer's advertised nest)

	// Sharding scaffolding (see Batch's doc comment for the draw-placement
	// rules). shards is at least 1; pool is nil when the lane runs
	// single-sharded, and pool.run dispatches a phase either inline or
	// across the pool. shardLo holds the shards+1 ant-range bounds. The sh*
	// slabs are per-shard reduction scratch, one (k+1)- or numExec-sized
	// block per shard: population tallies and commitment deltas (summed
	// sequentially after the parallel phase — integer sums, so the reduction
	// order never shows), recruiter counts (prefix-summed into per-shard
	// slot bases), histogram banks and scatter cursors, transport flags, and
	// the first-error record each shard may park (reduced by (state, ant)
	// order so the reported error is exactly the sequential scan's first).
	//
	// The ph* fields carry one phase's parameters from the sequential
	// dispatch point into the shard function — the functions themselves
	// (fnDraw, fnLockFold, …) are bound once at construction so dispatching
	// a phase allocates nothing.
	shards     int
	pool       *shardPool
	shardLo    []int32
	shCnt      []int32 // histogram: 4 interleaved banks per shard
	shCur      []int32 // scatter cursors, shard-major
	shCounts   []int   // emit population tallies per shard
	shCommit   []int   // observe commitment deltas per shard
	shNRecr    []int32
	shSlotBase []int32
	shFinals   []int32
	shTrans    []uint8
	shErrKind  []uint8
	shErrState []int32
	shErrAnt   []int32

	phOp        EmitOp
	phPhase     uint8
	phAct       []uint8
	phBkt       []int32
	phMode      uint8
	phCountHome int32
	phDecay     float64

	fnSearch   func(int)
	fnDraw     func(int)
	fnLockFold func(int)
	fnHist     func(int)
	fnScatter  func(int)
	fnEmit     func(int)
	fnAssemble func(int)
	fnObserve  func(int)
	fnReset    func(int)

	// Fault lanes (nil/zero unless prog.Params.Faults is enabled). The four
	// synthetic states live after the program's own in the padded tables:
	// numExec = len(prog.States) + batchSyntheticStates, and sleepSt..crashSt
	// name them. alive is the census total (n minus Byzantine ants minus fired
	// crashes); lastNest tracks each crash-fated ant's last known candidate
	// nest — maintained every round, before and after the crash, exactly
	// like the scalar fault wrapper's Observe. crashAnts/crashAt and
	// sleepAnts/wakeAt are the compact victim lists the per-round passes
	// scan; the full crashRound/wakeRound/byz/permScrat columns are Assign
	// scratch.
	faulted    bool
	numExec    int
	sleepSt    uint8
	byzSrchSt  uint8
	byzRecrSt  uint8
	crashSt    uint8
	alive      int
	lastNest   []uint8
	crashAnts  []int32
	crashAt    []int32
	sleepAnts  []int32
	wakeAt     []int32
	crashRound []int32
	wakeRound  []int32
	byz        []uint8
	permScrat  []int32

	// Adaptive adversary (nil unless the spec carries a NewSchedule). sched
	// is rebuilt per replicate, schedSrc is the dedicated adversary stream
	// (root.Split(EffectiveScheduleSalt), touched by nothing else), schedOps
	// is the reused mutation buffer applySchedule hands to the schedule, and
	// nCrashed tallies currently-crashed ants for the view (alive excludes
	// Byzantine ants too, so it cannot serve as the restart-candidate count).
	sched    FaultSchedule
	schedSrc rng.Source
	schedOps []FaultOp
	nCrashed int

	matcher CaptureLister        // NewBatch admits only capture-listing matchers
	carryM  CarryMatcher         // matcher's carry form; nil when unimplemented
	algo1   *AlgorithmOneMatcher // matcher as Algorithm 1, which match runs on the pool; nil for any other

	// Fixed-point draw kernels, shared read-only from the Batch.
	popT []rng.Threshold
	rcp  rng.Recip
	docT rng.Threshold

	// round is the replicate's current round, set by runReplicate before
	// each step: the shard phases read it for the keyed draws, and the
	// schedule's view reports it.
	round int

	// The dense state table and Final flags, padded to the full uint8 index
	// range so per-ant dispatch indexes with no bounds checks.
	states [256]ProgramState
	final  [256]uint8
}

// paddedSource is a scratch Source alone on its cache line, so the shards
// reseeding their own never write to a line another shard reads.
type paddedSource struct {
	rng.Source
	_ [56]byte
}

func newLane(b *Batch, shards int) *lane {
	n, k := b.n, b.env.K()
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	qs := b.env.Qualities()
	ln := &lane{
		prog:     b.prog,
		env:      b.env,
		qual:     qs,
		n:        n,
		k:        k,
		lockstep: b.lockstep,
		decides:  b.decides,
		nest:     make([]uint8, n),
		count:    make([]int32, n),
		quality:  make([]float64, n),
		actNest:  make([]uint8, n),
		counts:   make([]int, k+1),
		commit:   make([]int, k+1),
		active:   make([]bool, n),
		shards:   shards,
		popT:     b.popT,
		rcp:      b.rcp,
		docT:     b.docT,
	}
	copy(ln.states[:], b.prog.States)
	for i, st := range b.prog.States {
		if st.Final {
			ln.final[i] = 1
		}
	}
	ln.numExec = len(b.prog.States)
	if b.faulted {
		// Append the engine-owned synthetic fault states after the program's.
		// Three of the four reuse the generic emit loops verbatim: a sleeping
		// ant recruits passively at home (its nest register stays Home while
		// it sleeps), a searching Byzantine ant draws its search destinations
		// as any searcher does, and a luring Byzantine ant actively
		// recruits for the bad nest latched in its nest register. Only the
		// crashed state's emit (goto last known nest / idle at home) and the
		// Byzantine search fold (latch the first BAD nest, without touching
		// the commitment census) need intercepts in stepGeneral. All four
		// observe as ObserveNone — a self-loop that folds nothing, which also
		// makes the capture pass skip them (a captured sleeper or corpse
		// ignores being dragged; the sparse lastNest pass handles the corpse's
		// location drift separately).
		ln.faulted = true
		base := uint8(ln.numExec)
		ln.sleepSt = base
		ln.byzSrchSt = base + 1
		ln.byzRecrSt = base + 2
		ln.crashSt = base + 3
		ln.states[ln.sleepSt] = ProgramState{Emit: EmitRecruitBit, Arg: 0, Observe: ObserveNone, Next: ln.sleepSt}
		ln.states[ln.byzSrchSt] = ProgramState{Emit: EmitSearch, Observe: ObserveNone, Next: ln.byzSrchSt}
		ln.states[ln.byzRecrSt] = ProgramState{Emit: EmitRecruitBit, Arg: 1, Observe: ObserveNone, Next: ln.byzRecrSt}
		ln.states[ln.crashSt] = ProgramState{Emit: EmitRecruitBit, Arg: 0, Observe: ObserveNone, Next: ln.crashSt}
		ln.numExec += batchSyntheticStates
		ln.lastNest = make([]uint8, n)
		ln.crashAnts = make([]int32, 0, n)
		ln.crashAt = make([]int32, 0, n)
		ln.sleepAnts = make([]int32, 0, n)
		ln.wakeAt = make([]int32, 0, n)
		ln.crashRound = make([]int32, n)
		ln.wakeRound = make([]int32, n)
		ln.byz = make([]uint8, n)
		ln.permScrat = make([]int32, n)
		if b.prog.Params.Faults.NewSchedule != nil {
			// The mutation buffer starts at a modest capacity and grows
			// amortized in applySchedule if a schedule ever asks for more;
			// steady-state rounds then allocate nothing.
			ln.schedOps = make([]FaultOp, 0, 64)
		}
		if f := b.prog.Params.Faults; f.SleepFraction > 0 || f.NewSchedule != nil {
			ln.base = make([]int32, n)
		}
	}
	if !b.lockstep {
		numExec := ln.numExec
		ln.state = make([]uint8, n)
		ln.nestT = make([]uint8, n)
		ln.countT = make([]int32, n)
		ln.recruiters = make([]int32, n)
		ln.slotOf = make([]int32, n)
		ln.bktAnts = make([]int32, n)
		ln.segOff = make([]int32, numExec*shards+1)
		ln.shCnt = make([]int32, shards*4*numExec)
		ln.shCur = make([]int32, shards*numExec)
		ln.iota32 = make([]int32, n)
		for i := range ln.iota32 {
			ln.iota32[i] = int32(i)
		}
		ln.isRecr = make([]uint8, n)
		ln.actBit = make([]bool, n)
		ln.preState = make([]uint8, n)
		ln.slotNest = make([]uint8, n)
		ln.shNRecr = make([]int32, shards)
		ln.shSlotBase = make([]int32, shards)
		ln.shFinals = make([]int32, shards)
		ln.shTrans = make([]uint8, shards)
		ln.shErrKind = make([]uint8, shards)
		ln.shErrState = make([]int32, shards)
		ln.shErrAnt = make([]int32, shards)
	}
	// Shard scaffolding shared by both paths: even ant-range bounds, the
	// population and commitment-delta slabs, the phase functions (bound
	// once, so per-round dispatch allocates nothing) and — only when the
	// lane actually splits — the helper pool.
	ln.shardLo = make([]int32, shards+1)
	for sh := 0; sh <= shards; sh++ {
		lo, _ := shardSpan(n, sh, shards)
		ln.shardLo[sh] = int32(lo)
	}
	ln.shCounts = make([]int, shards*(k+1))
	ln.shCommit = make([]int, shards*(k+1))
	ln.fnSearch = ln.searchShard
	ln.fnDraw = ln.drawActiveShard
	ln.fnLockFold = ln.lockFoldShard
	ln.fnHist = ln.histShard
	ln.fnScatter = ln.scatterShard
	ln.fnEmit = ln.emitShard
	ln.fnAssemble = ln.assembleShard
	ln.fnObserve = ln.observeShard
	ln.fnReset = ln.resetShard
	ln.matcher = b.newMatcher().(CaptureLister) // NewBatch checked the factory
	ln.carryM, _ = ln.matcher.(CarryMatcher)
	ln.algo1, _ = ln.matcher.(*AlgorithmOneMatcher)
	if sized, ok := ln.matcher.(sizedMatcher); ok {
		sized.Reserve(n) // recruiting sets reach colony size; never grow mid-run
	}
	// The pool comes after the user's matcher factory, so a factory that
	// panics leaves no helper goroutines behind.
	ln.pool = newShardPool(shards)
	if b.antRNG {
		ln.shSrc = make([]paddedSource, shards)
	}
	if b.needI {
		ln.paramI = make([]int32, n)
	}
	if b.needF {
		ln.paramF = make([]float64, n)
	}
	if b.usesCarry {
		ln.carries = make([]int, n)
	}
	return ln
}

// close releases the lane's shard pool (a no-op for single-sharded lanes).
func (ln *lane) close() {
	if ln.pool != nil {
		ln.pool.close()
	}
}

// reset re-seeds the lane for a fresh replicate, deriving the same keys and
// streams the scalar stack does: the engine splits {0: environment key, 1:
// matcher} and the algorithm builder takes its agent key from split {2}. A
// fault schedule factory that returns nil is an error, as it is on the
// scalar engine.
func (ln *lane) reset(seed uint64) error {
	root := rng.New(seed)
	var keySrc rng.Source
	root.SplitInto(0, &keySrc)
	ln.envKey = keySrc.Key()
	root.SplitInto(1, &ln.matchSrc)
	root.SplitInto(2, &keySrc)
	ln.agentKey = keySrc.Key()
	ln.round = 0
	// Register init shards cleanly: ApproxN's ñ is a keyed word, and every
	// other write is a per-ant constant.
	ln.pool.run(ln.fnReset)
	split := ln.prog.InitSplit
	ln.alive = ln.n
	if ln.faulted {
		// The victim assignment draws from root.Split(Salt) — the same stream,
		// consumed identically, as the scalar faults.Spec wrapper builder
		// (both delegate to FaultSpec.Assign). The overrides run AFTER the
		// register and parameter-column init above because the scalar stack
		// builds the whole colony (including ApproxN's ñ draws) before the
		// wrapper replaces victims.
		var faultSrc rng.Source
		root.SplitInto(ln.prog.Params.Faults.Salt, &faultSrc)
		ln.prog.Params.Faults.Assign(ln.n, &faultSrc, ln.crashRound, ln.wakeRound, ln.byz, ln.permScrat)
		ln.nCrashed = 0
		if ns := ln.prog.Params.Faults.NewSchedule; ns != nil {
			// A fresh schedule per replicate (stateful schedules restart) and
			// the dedicated adversary stream: the scalar controller builds
			// both identically, so adaptive draws can never desync.
			ln.sched = ns()
			if ln.sched == nil {
				return errNilSchedule
			}
			root.SplitInto(ln.prog.Params.Faults.EffectiveScheduleSalt(), &ln.schedSrc)
		}
		ln.crashAnts = ln.crashAnts[:0]
		ln.crashAt = ln.crashAt[:0]
		ln.sleepAnts = ln.sleepAnts[:0]
		ln.wakeAt = ln.wakeAt[:0]
		for i := 0; i < ln.n; i++ {
			switch {
			case ln.crashRound[i] > 0:
				ln.crashAnts = append(ln.crashAnts, int32(i))
				ln.crashAt = append(ln.crashAt, ln.crashRound[i])
			case ln.byz[i] != 0:
				ln.state[i] = ln.byzSrchSt
				ln.alive--
			case ln.wakeRound[i] > 0:
				ln.sleepAnts = append(ln.sleepAnts, int32(i))
				ln.wakeAt = append(ln.wakeAt, ln.wakeRound[i])
				ln.state[i] = ln.sleepSt
			}
		}
	}
	for i := range ln.commit {
		ln.commit[i] = 0
	}
	ln.commit[Home] = ln.alive
	ln.finals = 0
	if ln.decides {
		if !ln.faulted && split == 0 {
			if ln.final[ln.prog.Init] != 0 {
				ln.finals = ln.n
			}
		} else {
			for i := 0; i < ln.n; i++ {
				ln.finals += int(ln.final[ln.state[i]])
			}
		}
	}
	return nil
}

// resetShard performs reset's per-ant work for one shard's ant range.
func (ln *lane) resetShard(sh int) {
	ln.resetRange(int(ln.shardLo[sh]), int(ln.shardLo[sh+1]))
}

// resetRange puts ants lo..hi-1 in their replicate-start state: the
// parameter columns (ApproxN's ñ is the ant's keyed ApproxNEstimate, as the
// scalar builder computes it), the register file and the clock offsets.
// Reset runs it per shard and restartAnt per revived ant, which therefore
// gets back the ñ it was born with; its draws replay its birth draws once
// restartAnt sets its clock offset.
func (ln *lane) resetRange(lo, hi int) {
	if ln.paramI != nil {
		for i := lo; i < hi; i++ {
			ln.paramI[i] = 0
		}
	}
	if ln.paramF != nil {
		delta := ln.prog.Params.NEstDelta
		for i := lo; i < hi; i++ {
			ln.paramF[i] = ApproxNEstimate(ln.n, delta, ln.agentKey, i)
		}
	}
	if ln.base != nil {
		for i := lo; i < hi; i++ {
			ln.base[i] = 0
		}
	}
	for i := lo; i < hi; i++ {
		ln.nest[i] = homeNest
		ln.count[i] = 0
		ln.quality[i] = 0
	}
	if ln.lockstep {
		return
	}
	for i := lo; i < hi; i++ {
		ln.state[i] = ln.initState(i)
		ln.nestT[i] = homeNest
		ln.countT[i] = 0
	}
	if ln.faulted {
		for i := lo; i < hi; i++ {
			ln.lastNest[i] = homeNest
		}
	}
}

// initState is ant i's initial program state: Init, or InitRest from the
// program's InitSplit on. Reset, a sleeper's wake and a restart all enter
// through it.
//
//hh:hotpath
func (ln *lane) initState(i int) uint8 {
	if split := ln.prog.InitSplit; split > 0 && i >= split {
		return ln.prog.InitRest
	}
	return ln.prog.Init
}

// antRound is ant i's logical round: the lane round, minus the ant's clock
// offset on a lane with sleepers or a schedule.
//
//hh:hotpath
func (ln *lane) antRound(i int) int {
	if ln.base == nil {
		return ln.round
	}
	return ln.round - int(ln.base[i])
}

// crashAnt crashes ant i: it leaves the census (commitment tally, alive and
// Final counts) and parks in the crashed synthetic state. Its lastNest keeps
// its value, so the corpse wanders to the last nest the ant knew. The static
// pre-round crash and a schedule's FaultCrash both come here.
//
//hh:coldpath crash events are sparse — O(victims) over a run, never O(n) per round
func (ln *lane) crashAnt(i int) {
	ln.commit[ln.nest[i]]--
	ln.alive--
	ln.nCrashed++
	ln.finals -= int(ln.final[ln.state[i]])
	ln.state[i] = ln.crashSt
}

// runReplicate executes one colony to convergence or the round budget. obs
// is a draw-free observation tap on the resolved round; it touches no RNG
// stream, so its presence cannot perturb the replicate (the differential
// tests pin this).
func (ln *lane) runReplicate(rep int, seed uint64, maxRounds, window int, obs LaneObserver) (res BatchResult, err error) {
	round := 0 // the round a recovered panic is reported at
	defer func() {
		if v := recover(); v != nil {
			res, err = BatchResult{}, newLanePanic(fmt.Sprintf("round %d", round), v)
		}
	}()
	if err = ln.reset(seed); err != nil {
		return BatchResult{}, err
	}
	res = BatchResult{Seed: seed, Decided: -1}
	streak := 0
	var winner NestID
	phase := ln.prog.Init
	for round = 1; round <= maxRounds; round++ {
		ln.round = round
		if ln.lockstep {
			var next uint8
			next, err = ln.stepLockstep(phase)
			phase = next
			if ln.decides {
				ln.finals = 0
				if ln.final[phase] != 0 {
					ln.finals = ln.n
				}
			}
		} else {
			err = ln.stepGeneral()
		}
		if err != nil {
			return BatchResult{}, fmt.Errorf("round %d: %w", round, err)
		}
		w, ok := ln.census()
		if obs != nil {
			obs.ObserveRound(rep, round, ln.counts, ln.commit)
		}
		// Streak bookkeeping mirrors core.Run's until predicate exactly.
		switch {
		case !ok:
			streak = 0
		case streak == 0 || w == winner:
			winner = w
			streak++
		default: // converged, but to a different nest than the streak's
			winner = w
			streak = 1
		}
		res.Rounds = round
		if streak >= window {
			break
		}
	}
	res.Committed = append([]int(nil), ln.commit...)
	if ln.decides {
		res.Decided = ln.finals
	}
	if ln.faulted {
		res.Faulty = ln.n - ln.alive
	}
	if streak >= window {
		res.Solved = true
		res.Winner = winner
		res.WinnerQuality = ln.qual[winner]
	}
	if obs != nil {
		obs.ReplicateDone(rep, &res)
	}
	return res, nil
}

// moveCommit moves ant i's commitment to nest to: when to differs from the
// ant's nest register, the register takes it and the census commit (a lane's
// tally or a shard's delta slab) moves one ant from the old nest to the new.
// It reports whether the ant moved; every fold that commits an ant comes
// here.
//
//hh:hotpath
func moveCommit(commit []int, nest []uint8, i int, to uint8) bool {
	from := nest[i]
	if to == from {
		return false
	}
	commit[from]--
	commit[to]++
	nest[i] = to
	return true
}

// perceiveCount is ant i's count register after it reads population c at
// logical round r: Params.Count's reading, drawn from src reseeded with the
// ant's DrawCount word as NoisyAnt's observe draws it, or c itself when the
// program has no count hook.
//
//hh:hotpath
//hh:draws whatever Params.Count draws, from src reseeded with the ant's DrawCount word
func (ln *lane) perceiveCount(src *rng.Source, i, r, c int) int32 {
	if hook := ln.prog.Params.Count; hook != nil {
		ln.agentKey.ReseedAnt(src, i, r, rng.DrawCount)
		c = hook(c, ln.n, src)
	}
	return countReg(c)
}

// perceiveQuality is ant i's quality register after it assesses a nest of
// quality q at logical round r: 1 when the assessment exceeds threshold and
// 0 otherwise. The assessment is Params.Assess's, drawn from src reseeded
// with the ant's DrawAssess word as NoisyAnt's and QuorumAnt's observes draw
// it, or q itself when the program has no assess hook.
//
//hh:hotpath
//hh:draws whatever Params.Assess draws, from src reseeded with the ant's DrawAssess word
func (ln *lane) perceiveQuality(src *rng.Source, i, r int, q, threshold float64) float64 {
	if hook := ln.prog.Params.Assess; hook != nil {
		ln.agentKey.ReseedAnt(src, i, r, rng.DrawAssess)
		q = hook(q, src)
	}
	if q > threshold {
		return 1
	}
	return 0
}

// countReg narrows a perception hook's count reading to the lane's int32
// count register, saturating at its range where a plain conversion would
// wrap. The scalar NoisyAnt keeps the full int, and saturation is exact: the
// recruit draw reads only the count's sign and how it compares with
// n ≤ MaxInt32.
//
//hh:hotpath
func countReg(c int) int32 {
	return int32(min(max(c, math.MinInt32), math.MaxInt32))
}

// match pairs the round's nR recruiting slots, whose recruit bits are the
// active column. Algorithm 1 runs through pair, which fans its order-free
// passes out on the lane's shard pool; any other matcher is called as the
// scalar engine calls it, through MatchCarry when carries is non-nil and
// Match otherwise. Either way the pairs come back as the matcher's capture
// lists and no table is filled.
//
//hh:hotpath
//hh:draws matchSrc through the matcher only; Algorithm 1 takes its one round key there whichever entry runs it
func (ln *lane) match(nR int, carries []int) {
	switch {
	case ln.algo1 != nil:
		ln.algo1.pair(ln.pool, nR, ln.active, carries, &ln.matchSrc)
	case carries != nil:
		ln.carryM.MatchCarry(nR, ln.active, carries, &ln.matchSrc, nil, nil)
	default:
		ln.matcher.Match(nR, ln.active, &ln.matchSrc, nil, nil)
	}
}

// foldCommitDeltas folds the per-shard commitment delta slabs into the
// lane's census — O(k·shards), order-free integer sums.
//
//hh:hotpath
func (ln *lane) foldCommitDeltas() {
	k1 := ln.k + 1
	commit := ln.commit
	for sh := 0; sh < ln.shards; sh++ {
		d := ln.shCommit[sh*k1 : (sh+1)*k1]
		for j, v := range d {
			commit[j] += v
		}
	}
}

// census reports unanimous commitment to a good nest from the incrementally
// maintained tally, mirroring core.TakeCensus + Census.Converged: faulty ants
// (Byzantine from round one, crashed once their crash fires) are excluded
// from the census total, while sleeping ants count — the colony cannot
// converge before its idle reserve wakes and joins. A deciding program (one
// with Final states) additionally requires every census ant to have reached a
// Final state, exactly as the scalar runner gates on the core.Decided
// contract.
//
//hh:hotpath
func (ln *lane) census() (NestID, bool) {
	alive := ln.n
	if ln.faulted {
		alive = ln.alive
		if alive == 0 {
			return Home, false
		}
	}
	if ln.decides && ln.finals != alive {
		return Home, false
	}
	for i := 1; i <= ln.k; i++ {
		if ln.commit[i] == alive && ln.qual[i] > 0 {
			return NestID(i), true
		}
	}
	return Home, false
}
