package sim

import (
	"fmt"

	"github.com/gmrl/househunt/internal/rng"
)

// Program is a compiled probabilistic finite state machine: the agent logic of
// internal/algo lowered to a dense opcode form that the batch engine (see
// Batch) can execute over flat state arrays with no interface dispatch, no
// map lookups and no per-ant heap objects.
//
// A Program state pairs one emit opcode (which environment call to make) with
// one observe opcode (how to fold the call's outcome into the register file)
// and up to three successor states. As in the paper's §2 model, each call
// returns its own kind of outcome — search() and go(i) a nest and its
// end-of-round population, recruit(b, i) the home population plus, when the
// ant is captured, the capturer's nest — and each observe opcode folds one
// kind (ObserveNone and ObserveInform take both); Validate rejects a state
// whose emit makes the other kind. The register file covers both compiled
// algorithms: a committed nest, a remembered count and a perceived quality
// (Algorithm 3), plus the scratch nest and scratch count Algorithm 2's 4-round
// subroutine carries between rounds (the pseudocode's nest_t and count_t).
//
// Two classes of observe opcode exist. The static ones (ObserveDiscovery,
// ObserveAdopt, ObserveCount) always enter Next, so a colony running only
// those advances in lockstep — the batch engine detects this (Lockstep) and
// runs a specialized shared-phase fast path. The branching ones select among
// Next/NextB/NextC based on the outcome; they are what Algorithm 2 needs, and
// they force the per-ant state column of the general execution path. The
// scalar OptimalAnt's branch, pending and latched next-state registers have no
// columns of their own: outcome-dependent successors encode them as dedicated
// states (e.g. a captured passive ant enters the pending chain of states that
// ends in the final state, exactly when the scalar ant would latch the
// transition at its phase boundary).
//
// States marked Final are terminal "decided" states (Algorithm 2's final
// state). A program with any Final state Decides: the batch engine then gates
// convergence on every ant having reached a Final state, mirroring the
// core.Decided contract of the scalar path, and reports the decided count in
// BatchResult.Decided.
//
// The opcode set covers Algorithms 2 and 3 plus the §6 extensions. The
// extensions that reshape only the recruit draw (Adaptive's boosted schedule,
// QualityAware's quality-weighted rate, ApproxN's private colony-size
// estimate) may read two per-ant parameter columns the lane materializes on
// demand — an integer column (Adaptive's phase clock) and a float column
// (ApproxN's ñ estimate) — and their scalar knobs travel in Params. The
// noisy-perception extension routes every count and quality read through the
// pluggable perception hooks of Params (nil hooks mean exact perception and
// cost nothing), and the quorum-transport extension adds a carry-capable
// recruit emit plus capture-sensitive observes: its threshold register lives
// in the countT scratch column (disjoint from Algorithm 2's use) and its
// transport flag is encoded in the state chain, so no new register columns are
// needed. The stock matcher ablations run batched through WithBatchMatcher,
// and fault injection runs batched through the Params.Faults knobs: the lane
// materializes per-ant crash-round/Byzantine/sleep columns and routes faulted
// ants through engine-owned synthetic states (see FaultSpec), which forces the
// general path and caps faulted programs at 252 states.
// An algorithm advertises its compiled form by implementing the core package's
// BatchCompilable interface.
type Program struct {
	// Algorithm is the source algorithm's name, carried into results.
	Algorithm string
	// Init is the index of the initial state.
	Init uint8
	// States is the dense state table; successor indices refer into it.
	States []ProgramState
	// InitSplit, when positive, splits the colony's initial state by ant
	// index: ants i < InitSplit start in Init and ants i >= InitSplit start
	// in InitRest. The compiled Spreader process uses this for its
	// seed-searcher/waiter split; a split colony is heterogeneous from round
	// one, so Lockstep reports false.
	InitSplit int
	// InitRest is the initial state of ants i >= InitSplit; meaningful only
	// when InitSplit > 0.
	InitRest uint8
	// Params parameterizes the extension emit opcodes; zero unless the
	// program uses one of them (see ProgramParams).
	Params ProgramParams
}

// ProgramParams carries the scalar knobs of the §6 extension opcodes. The
// fields are program-wide constants; per-ant state lives in the lane's
// parameter columns instead.
type ProgramParams struct {
	// Tau is EmitRecruitAdaptive's boost-doubling period in recruit phases;
	// must be positive when that opcode appears.
	Tau int
	// FloorDiv caps EmitRecruitAdaptive's boost at a virtual rival of
	// n/FloorDiv; must be positive when that opcode appears.
	FloorDiv float64
	// NEstDelta is EmitRecruitApproxN's maximum relative colony-size error:
	// each ant's private estimate is ñ = n·(1 + u), u ~ Uniform(−δ, +δ),
	// the ant's keyed ApproxNEstimate (exactly n when 0, matching the scalar
	// builder). Must lie in [0, 1) when the opcode appears.
	NEstDelta float64

	// Assess is the perception hook applied by ObserveDiscoverNoisy and
	// ObserveDiscoverQuorum to the outcome quality — the compiled form of a
	// nest.Assessor. It draws any noise from the Source it is handed, which
	// the lane reseeds from the observing ant's DrawAssess word before every
	// call, as the scalar agents do. Nil means exact assessment, like
	// nest.ExactAssessor. Hooks may be called concurrently from different
	// worker lanes and must be stateless, which every assessor in the nest
	// package is.
	Assess func(q float64, src *rng.Source) float64
	// Count is the perception hook applied by ObserveDiscoverNoisy and
	// ObserveCountNoisy to the outcome count — the compiled form of a
	// nest.CountEstimator — on a Source reseeded from the ant's DrawCount
	// word. Nil means exact counting. The same statelessness requirement as
	// Assess applies.
	Count func(count, n int, src *rng.Source) int
	// Threshold is ObserveDiscoverNoisy's good/bad classification cut: a
	// perceived quality <= Threshold classifies the nest as bad (the ant
	// recruits passively until captured), mirroring NoisyAnt.
	Threshold float64

	// QuorumMult scales an ant's initially observed population into its quorum
	// threshold (ObserveDiscoverQuorum): T = max(⌊QuorumMult·count⌋, count+2).
	// Must exceed 1 when that opcode appears.
	QuorumMult float64
	// QuorumCarry is EmitRecruitTransport's carry capacity (the §6 transport
	// extension; the paper's [21] reports ≈ 3). Must be >= 1 when that opcode
	// appears.
	QuorumCarry int
	// QuorumDocility is the probability a captured transporter submits to
	// being carried away (ObserveQuorumTransport), the captured ant's keyed
	// DrawDocility coin. Must lie in [0, 1] when that opcode appears.
	QuorumDocility float64

	// Faults injects crash/Byzantine/sleep adversaries into every replicate
	// (see FaultSpec). A disabled (zero) spec costs nothing; an enabled one
	// forces the general execution path and caps the program at 252 states
	// (the engine appends its synthetic fault states after the program's).
	Faults FaultSpec
}

// ProgramState is one compiled PFSM state.
type ProgramState struct {
	// Emit selects the environment call made while in this state.
	Emit EmitOp
	// Arg parameterizes Emit; only EmitRecruitBit uses it (the active bit,
	// 0 or 1).
	Arg uint8
	// Observe selects how the outcome updates the registers and which
	// successor is entered.
	Observe ObserveOp
	// Next is the default successor state.
	Next uint8
	// NextB is the secondary successor of branching observe opcodes (see the
	// per-opcode docs); unused by the static ones.
	NextB uint8
	// NextC is the tertiary successor; only ObserveCompareR2 uses it.
	NextC uint8
	// Final marks a terminal "decided" state for the core.Decided contract.
	Final bool
}

// EmitOp enumerates the compiled emit behaviours.
type EmitOp uint8

const (
	// EmitSearch performs search().
	//hh:draws none from the ant; the destination is the environment key's DrawSearch word of (ant, round) scalar=SimpleAnt.Act
	EmitSearch EmitOp = iota
	// EmitGotoNest performs go(nest) on the committed nest register.
	//hh:draws none scalar=SimpleAnt.Act
	EmitGotoNest
	// EmitRecruitPop performs recruit(b, nest) with b drawn as
	// Bernoulli(count/n) when the quality register is positive and b = 0
	// otherwise — Algorithm 3's population-proportional recruitment. The
	// coin is the ant's keyed DrawRecruit word of its logical round, the
	// word the scalar SimpleAnt compares, which is what keeps batch and
	// scalar executions bit-identical.
	//hh:draws one keyed DrawRecruit word per ant, ignored when quality <= 0 scalar=SimpleAnt.Act
	EmitRecruitPop
	// EmitRecruitBit performs recruit(Arg, nest): the active bit is fixed by
	// the state rather than drawn — Algorithm 2's recruits are all of this
	// form (lines 14, 21, 23, 29, 35 of the pseudocode).
	//hh:draws none: the active bit is compiled into the state, not drawn scalar=OptimalAnt.Act
	EmitRecruitBit
	// EmitGotoScratch performs go(nestT) on the scratch nest register —
	// Algorithm 2's R2 visit to the nest learned while recruiting (line 24).
	//hh:draws none scalar=OptimalAnt.Act
	EmitGotoScratch
	// EmitRecruitQual performs recruit(b, nest) with b drawn as
	// Bernoulli(quality·count/n) — the §6 non-binary-quality extension's
	// assessment-weighted rate. The coin needs no gate: a passive ant always
	// holds quality 0, so its rate rejects every word, exactly as the scalar
	// QualityAnt's active gate does.
	//hh:draws one keyed DrawRecruit word per ant scalar=QualityAnt.Act
	EmitRecruitQual
	// EmitRecruitAdaptive performs recruit(b, nest) with b drawn as
	// Bernoulli(AdaptiveRecruitProbability(n, count, phases, Tau, FloorDiv))
	// when the quality register is positive and b = 0 otherwise — the §6
	// boosted-rate extension. phases is the ant's entry in the lane's integer
	// parameter column, incremented on every emit (drawn or not), mirroring
	// the scalar AdaptiveAnt's phase clock.
	//hh:draws one keyed DrawRecruit word per ant, ignored when quality <= 0 scalar=AdaptiveAnt.Act
	EmitRecruitAdaptive
	// EmitRecruitApproxN performs recruit(b, nest) with b drawn as
	// Bernoulli(min(1, count/ñ)) when the quality register is positive and
	// b = 0 otherwise — the §6 approximate-n extension. ñ is the ant's entry
	// in the lane's float parameter column, initialized from Params.NEstDelta
	// at replicate start.
	//hh:draws one keyed DrawRecruit word per ant, ignored when quality <= 0 scalar=ApproxNAnt.Act
	EmitRecruitApproxN
	// EmitRecruitTransport performs recruit(1, nest) with carry capacity
	// Params.QuorumCarry — the §6 transport extension's direct carrying, as
	// QuorumAnt emits after passing quorum. The bit is fixed at 1 (a
	// transporter always recruits), so no randomness is drawn; the lane routes
	// the round's pairing through the matcher's carry-aware form
	// (CarryMatcher.MatchCarry) exactly as the scalar engine does.
	//hh:draws none: a transporter always recruits actively scalar=QuorumAnt.Act
	EmitRecruitTransport
)

// AdaptiveRecruitProbability is the boosted recruitment rate of the §6
// "improved running time" extension and the semantic definition of
// EmitRecruitAdaptive:
//
//	b(r) = count / (count + A(r)),   A(r) = max(n·2^(−⌊phases/tau⌋), n/floorDiv)
//
// The scalar AdaptiveAnt delegates here too, so batch and scalar executions
// share one float-for-float identical formula by construction.
//
//hh:hotpath
//hh:floatok the shared scalar/batch rate definition: float by contract, consumed only through Bernoulli/NewThreshold
func AdaptiveRecruitProbability(n, count, phases, tau int, floorDiv float64) float64 {
	c := float64(count)
	decay := adaptiveDecay(n, phases, tau, floorDiv)
	return c / (c + decay)
}

// ApproxNEstimate is ApproxN's private colony-size estimate for ant ant of
// an n-ant colony: ñ = n·(1 + (2u − 1)·delta), u uniform in [0, 1) from the
// ant's DrawNEst word at logical round 0 under the agent key, and exactly n
// unless delta > 0. The scalar ApproxN builder and the batch lane's parameter
// column both compute it here, so a restarted ant gets its birth estimate
// back on either engine.
//
//hh:floatok the shared scalar/batch estimate definition: float by contract
func ApproxNEstimate(n int, delta float64, key rng.Key, ant int) float64 {
	nF := float64(n)
	if !(delta > 0) {
		return nF
	}
	u := rng.WordFloat64(key.AntWord(ant, 0, rng.DrawNEst))
	return nF * (1 + (2*u-1)*delta)
}

// adaptiveDecay computes the schedule's virtual-rival term A(r). It is split
// out so the lockstep batch path, where the phase clock is colony-uniform,
// can hoist it out of the per-ant loop.
//
//hh:hotpath
//hh:floatok the shared scalar/batch rate definition: float by contract, consumed only through Bernoulli/NewThreshold
func adaptiveDecay(n, phases, tau int, floorDiv float64) float64 {
	decay := float64(n)
	for i := 0; i < phases/tau; i++ {
		decay /= 2
		if decay <= float64(n)/floorDiv {
			break
		}
	}
	floor := float64(n) / floorDiv
	if decay < floor {
		decay = floor
	}
	return decay
}

// ObserveOp enumerates the compiled observe behaviours. Static opcodes always
// enter Next; branching ones document which successor each outcome selects.
// Each opcode folds the outcome of one kind of call, search/go or recruit
// (see observeKind); its doc names the kind.
type ObserveOp uint8

const (
	// ObserveDiscovery loads nest, count and quality from the outcome — the
	// pattern after search(). Folds search/go outcomes. Static.
	//hh:draws none scalar=SimpleAnt.Observe
	ObserveDiscovery ObserveOp = iota
	// ObserveAdopt adopts the recruiter's nest when the outcome's nest
	// differs from the committed one, setting quality to 1 (a captured ant
	// trusts its recruiter) — the pattern after recruit(). Folds recruit
	// outcomes. Static.
	//hh:draws none scalar=SimpleAnt.Observe
	ObserveAdopt
	// ObserveCount loads only the count register — the pattern after go().
	// Folds search/go outcomes. Static.
	//hh:draws none scalar=SimpleAnt.Observe
	ObserveCount
	// ObserveNone folds nothing — the padding calls of Algorithm 2 whose
	// return values are discarded — so it follows either kind of call.
	// Static.
	//hh:draws none scalar=OptimalAnt.Observe
	ObserveNone
	// ObserveDiscoverBranch loads nest, count and quality like
	// ObserveDiscovery, then branches on the discovered quality: Next when
	// quality > 0 (Algorithm 2's active), NextB when quality = 0 (passive) —
	// lines 8-11. Folds search/go outcomes.
	//hh:draws none scalar=OptimalAnt.Observe
	ObserveDiscoverBranch
	// ObserveRecruitNest stores the outcome nest in the scratch nest register
	// nestT (the recruit of line 23, whose result is the capturer's nest when
	// captured and the ant's own nest otherwise), then enters Next. Folds
	// recruit outcomes.
	//hh:draws none scalar=OptimalAnt.Observe
	ObserveRecruitNest
	// ObserveCompareR2 stores the outcome count in countT and performs
	// Algorithm 2's three-way R2 compare (lines 25-38): Case 1 (nestT = nest
	// and countT >= count) re-baselines count := countT and enters Next;
	// Case 2 (nestT = nest, population dropped) enters NextB; Case 3
	// (recruited elsewhere) commits nest := nestT and enters NextC. Folds
	// search/go outcomes.
	//hh:draws none scalar=OptimalAnt.Observe
	ObserveCompareR2
	// ObserveRecountRebase is Case 3's R3 population check (lines 39-41) in
	// the analysis-consistent reading: count_n := outcome count; if
	// count_n < countT enter NextB (the to-passive chain), else re-baseline
	// count := count_n and enter Next. Folds search/go outcomes.
	//hh:draws none scalar=OptimalAnt.Observe
	ObserveRecountRebase
	// ObserveRecountLiteral is the pseudocode-literal Case 3 check: same
	// branching as ObserveRecountRebase but count keeps the old nest's value
	// on the Next branch (the stale baseline the E17 ablation quantifies).
	// Folds search/go outcomes.
	//hh:draws none scalar=OptimalAnt.Observe
	ObserveRecountLiteral
	// ObserveFinalEq is branch 1's R4 check (lines 29-31): if the outcome
	// count equals the count register enter NextB (the final state), else
	// Next. Folds recruit outcomes, whose count is the home-nest population.
	//hh:draws none scalar=OptimalAnt.Observe
	ObserveFinalEq
	// ObserveAdoptPend is the passive R2 fold (lines 14-17): when the outcome
	// nest differs the ant adopts it and enters NextB (the pending chain that
	// latches final at the phase boundary); otherwise it enters Next. Folds
	// recruit outcomes.
	//hh:draws none scalar=OptimalAnt.Observe
	ObserveAdoptPend
	// ObserveNestLatch re-loads the nest register from the outcome — the
	// final-state recruit loop's ⟨nest, ·⟩ := recruit(1, nest) of line 21 —
	// then enters Next. Folds recruit outcomes.
	//hh:draws none scalar=OptimalAnt.Observe
	ObserveNestLatch
	// ObserveAdoptZero adopts the recruiter's nest when the outcome's nest
	// differs from the committed one, resetting quality to 0 — the §6
	// quality-aware recruit fold: a captured ant prices the unknown nest
	// conservatively until its next visit re-assesses it. Folds recruit
	// outcomes. Static.
	//hh:draws none scalar=QualityAnt.Observe
	ObserveAdoptZero
	// ObserveCountQual loads the count register and re-assesses quality from
	// the outcome — the quality-aware assess visit, reading the nest's true
	// quality. Folds search/go outcomes. Static.
	//hh:draws none scalar=QualityAnt.Observe
	ObserveCountQual
	// ObserveDiscoverNoisy is the noisy-perception discovery fold: the count
	// register loads Params.Count(outcome count) and the quality register
	// loads 1 when Params.Assess(outcome quality) exceeds Params.Threshold and
	// 0 otherwise — NoisyAnt's active flag encoded exactly like Simple's
	// (quality > 0 gates the recruit coin). Each hook draws from a Source
	// reseeded with the observing ant's keyed word, DrawCount for the count
	// and DrawAssess for the quality, as NoisyAnt's observe does. Folds
	// search/go outcomes. Static.
	//hh:draws whatever Params.Count and Params.Assess draw, each from a Source reseeded with the ant's DrawCount or DrawAssess word scalar=NoisyAnt.Observe
	ObserveDiscoverNoisy
	// ObserveCountNoisy loads the count register through Params.Count — the
	// noisy assess visit. Folds search/go outcomes. Static.
	//hh:draws whatever Params.Count draws from a Source reseeded with the ant's DrawCount word scalar=NoisyAnt.Observe
	ObserveCountNoisy
	// ObserveDiscoverQuorum is the quorum-transport discovery fold: adopt the
	// outcome nest, load the exact count, classify activity by
	// Params.Assess(outcome quality) > 0.5 into the quality register (1 active
	// canvasser, 0 passive), and self-calibrate the quorum threshold
	// T = max(⌊QuorumMult·count⌋, count+2) into the countT scratch register —
	// exactly QuorumAnt's search observe. Folds search/go outcomes. Static.
	//hh:draws whatever Params.Assess draws from a Source reseeded with the ant's DrawAssess word scalar=QuorumAnt.Observe
	ObserveDiscoverQuorum
	// ObserveQuorumAdopt is the canvasser/passive recruit fold: when the ant
	// was CAPTURED this round (capture is what QuorumAnt keys on, not a nest
	// change — a carried ant knows it was picked up even if the capturer
	// advertises its own nest) it adopts the capturer's nest and becomes an
	// active canvasser (quality := 1). A self-pair does not count as capture.
	// Folds recruit outcomes. Static.
	//hh:draws none: capture state folds without randomness scalar=QuorumAnt.Observe
	ObserveQuorumAdopt
	// ObserveQuorumCheck is the canvasser assess fold: load the exact count,
	// then promote to transport — NextB — when the ant canvasses actively
	// (quality > 0) and the count has reached the countT threshold; otherwise
	// enter Next (keep canvassing). The transport states are Final, making the
	// compiled program deciding exactly as QuorumAnt.Decided reports transport.
	// Folds search/go outcomes.
	//hh:draws none scalar=QuorumAnt.Observe
	ObserveQuorumCheck
	// ObserveQuorumTransport is the transporter recruit fold: a captured
	// transporter submits with probability Params.QuorumDocility (the captured
	// ant's keyed DrawDocility coin); a submitting transporter carried to a
	// DIFFERENT nest demotes to a canvasser of that nest — NextB — while one
	// carried for its own nest, a resisting one, or an uncaptured one stays in
	// transport — Next. Folds recruit outcomes.
	//hh:draws one keyed DrawDocility word per captured transporter scalar=QuorumAnt.Observe
	ObserveQuorumTransport
	// ObserveInform is the rumor-spreading fold of the §3 lower-bound process:
	// when the outcome nest is good the ant learns the rumor — it commits to
	// that nest and enters Next (the informed state); otherwise it folds
	// nothing and enters NextB. The recruit outcome of a captured waiter
	// resolves to its capturer's advertised nest, so capture and discovery are
	// the same two information channels as the scalar SpreaderAnt's, and the
	// opcode folds both kinds of outcome: the compiled Spreader's searchers
	// search and its waiters recruit. The Spreader compiler requires exactly
	// one good nest, making "good outcome nest" and "outcome nest = target"
	// the same predicate.
	//hh:draws none scalar=SpreaderAnt.Observe
	ObserveInform
)

var emitNames = [...]string{
	EmitSearch: "EmitSearch", EmitGotoNest: "EmitGotoNest", EmitRecruitPop: "EmitRecruitPop",
	EmitRecruitBit: "EmitRecruitBit", EmitGotoScratch: "EmitGotoScratch", EmitRecruitQual: "EmitRecruitQual",
	EmitRecruitAdaptive: "EmitRecruitAdaptive", EmitRecruitApproxN: "EmitRecruitApproxN",
	EmitRecruitTransport: "EmitRecruitTransport",
}

var observeNames = [...]string{
	ObserveDiscovery: "ObserveDiscovery", ObserveAdopt: "ObserveAdopt", ObserveCount: "ObserveCount",
	ObserveNone: "ObserveNone", ObserveDiscoverBranch: "ObserveDiscoverBranch",
	ObserveRecruitNest: "ObserveRecruitNest", ObserveCompareR2: "ObserveCompareR2",
	ObserveRecountRebase: "ObserveRecountRebase", ObserveRecountLiteral: "ObserveRecountLiteral",
	ObserveFinalEq: "ObserveFinalEq", ObserveAdoptPend: "ObserveAdoptPend", ObserveNestLatch: "ObserveNestLatch",
	ObserveAdoptZero: "ObserveAdoptZero", ObserveCountQual: "ObserveCountQual",
	ObserveDiscoverNoisy: "ObserveDiscoverNoisy", ObserveCountNoisy: "ObserveCountNoisy",
	ObserveDiscoverQuorum: "ObserveDiscoverQuorum", ObserveQuorumAdopt: "ObserveQuorumAdopt",
	ObserveQuorumCheck: "ObserveQuorumCheck", ObserveQuorumTransport: "ObserveQuorumTransport",
	ObserveInform: "ObserveInform",
}

// String returns the opcode's constant name.
func (op EmitOp) String() string {
	if int(op) < len(emitNames) {
		return emitNames[op]
	}
	return fmt.Sprintf("EmitOp(%d)", uint8(op))
}

// String returns the opcode's constant name.
func (op ObserveOp) String() string {
	if int(op) < len(observeNames) {
		return observeNames[op]
	}
	return fmt.Sprintf("ObserveOp(%d)", uint8(op))
}

// outcomeKind is a set of the kinds of outcome a call returns.
type outcomeKind uint8

const (
	visitOutcome   outcomeKind = 1 << iota // search() and go(i): a nest and its end-of-round population
	recruitOutcome                         // recruit(b, i): the home population and, if captured, the capturer's nest
)

// observeKind reports the kinds of outcome op folds: one for every opcode
// but ObserveNone, which folds nothing, and ObserveInform, whose searchers
// and waiters share one rumor fold. The batch folds implement only these
// pairs; Validate rejects the rest.
func observeKind(op ObserveOp) outcomeKind {
	switch op {
	case ObserveAdopt, ObserveRecruitNest, ObserveFinalEq, ObserveAdoptPend, ObserveNestLatch,
		ObserveAdoptZero, ObserveQuorumAdopt, ObserveQuorumTransport:
		return recruitOutcome
	case ObserveNone, ObserveInform:
		return visitOutcome | recruitOutcome
	}
	return visitOutcome
}

// recruitEmit reports whether op sends the ant to the home-nest pairing (its
// outcome is then the home population and possibly a capturer's nest).
//
//hh:hotpath
func recruitEmit(op EmitOp) bool {
	switch op {
	case EmitRecruitBit, EmitRecruitTransport,
		EmitRecruitPop, EmitRecruitQual, EmitRecruitAdaptive, EmitRecruitApproxN:
		return true
	}
	return false
}

// staticObserve reports whether op always enters Next.
func staticObserve(op ObserveOp) bool {
	switch op {
	case ObserveDiscovery, ObserveAdopt, ObserveCount, ObserveNone,
		ObserveRecruitNest, ObserveNestLatch, ObserveAdoptZero, ObserveCountQual,
		ObserveDiscoverNoisy, ObserveCountNoisy,
		ObserveDiscoverQuorum, ObserveQuorumAdopt:
		return true
	}
	return false
}

// lockstepObserve reports whether the lockstep fast path implements op: the
// opcodes lockFoldShard (lockstep.go) folds, plus ObserveNone, which folds
// nothing. Every other opcode, static or not, runs on the general path.
func lockstepObserve(op ObserveOp) bool {
	switch op {
	case ObserveDiscovery, ObserveAdopt, ObserveCount, ObserveNone,
		ObserveAdoptZero, ObserveCountQual, ObserveDiscoverNoisy, ObserveCountNoisy:
		return true
	}
	return false
}

// lockstepEmit reports whether the lockstep fast path implements op.
func lockstepEmit(op EmitOp) bool {
	switch op {
	case EmitSearch, EmitGotoNest, EmitRecruitPop,
		EmitRecruitQual, EmitRecruitAdaptive, EmitRecruitApproxN:
		return true
	}
	return false
}

// recruitDrawEmit reports whether op is a recruit whose active bit is a
// keyed coin (as opposed to EmitRecruitBit's fixed bit).
func recruitDrawEmit(op EmitOp) bool {
	switch op {
	case EmitRecruitPop, EmitRecruitQual, EmitRecruitAdaptive, EmitRecruitApproxN:
		return true
	}
	return false
}

// Lockstep reports whether every transition is outcome-independent and every
// emit is colony-uniform, i.e. all ants of a colony are always in the same
// state. The batch engine runs such programs on a specialized shared-phase
// path with no per-ant state column or recruiter indirection. A split initial
// state (InitSplit) or an enabled fault spec makes the colony heterogeneous
// regardless of the opcodes, so either forces the general path.
func (p Program) Lockstep() bool {
	if p.InitSplit > 0 || p.Params.Faults.Enabled() {
		return false
	}
	for _, st := range p.States {
		if !lockstepObserve(st.Observe) || !lockstepEmit(st.Emit) {
			return false
		}
	}
	return true
}

// Decides reports whether the program distinguishes terminal states: true
// when any state is Final. Deciding programs gate convergence on all ants
// final, mirroring core.Decided.
func (p Program) Decides() bool {
	for _, st := range p.States {
		if st.Final {
			return true
		}
	}
	return false
}

// observeDrawsRNG reports whether op may draw per-ant randomness: the
// perception observes route values through the (possibly noisy) hooks, and
// the transporter fold takes the docility coin. The classification is
// conservative — exact (nil) hooks draw nothing — so a lane may allocate
// hook scratch Sources that stay unused.
func observeDrawsRNG(op ObserveOp) bool {
	switch op {
	case ObserveDiscoverNoisy, ObserveCountNoisy,
		ObserveDiscoverQuorum, ObserveQuorumTransport:
		return true
	}
	return false
}

// NeedsAntRNG reports whether any state draws per-ant randomness (every
// drawn-recruit opcode does; EmitRecruitApproxN additionally keys each ant's
// ñ estimate at replicate start; the perception and docility observes draw
// during the fold). A lane allocates its hook scratch Sources only then.
func (p Program) NeedsAntRNG() bool {
	for _, st := range p.States {
		if recruitDrawEmit(st.Emit) || observeDrawsRNG(st.Observe) {
			return true
		}
	}
	return false
}

// UsesCarry reports whether the lane must maintain the per-slot carry column
// and route recruitment pairing through CarryMatcher.MatchCarry
// (EmitRecruitTransport's capacity-carrying recruits).
func (p Program) UsesCarry() bool {
	for _, st := range p.States {
		if st.Emit == EmitRecruitTransport {
			return true
		}
	}
	return false
}

// NeedsIntParam reports whether the lane must materialize the per-ant integer
// parameter column (EmitRecruitAdaptive's phase clock).
func (p Program) NeedsIntParam() bool {
	for _, st := range p.States {
		if st.Emit == EmitRecruitAdaptive {
			return true
		}
	}
	return false
}

// NeedsFloatParam reports whether the lane must materialize the per-ant float
// parameter column (EmitRecruitApproxN's ñ estimate).
func (p Program) NeedsFloatParam() bool {
	for _, st := range p.States {
		if st.Emit == EmitRecruitApproxN {
			return true
		}
	}
	return false
}

// Validate checks structural soundness: a non-empty table, an in-range
// initial state, in-range successors (including the alternates of branching
// opcodes), known, well-parameterized opcodes whose emit makes the kind of
// outcome the observe folds and, for the extension opcodes, in-range program
// parameters.
func (p Program) Validate() error {
	if len(p.States) == 0 {
		return fmt.Errorf("sim: program %q has no states", p.Algorithm)
	}
	if len(p.States) > 256 {
		return fmt.Errorf("sim: program %q has %d states; state ids are 8-bit", p.Algorithm, len(p.States))
	}
	if int(p.Init) >= len(p.States) {
		return fmt.Errorf("sim: program %q initial state %d out of range", p.Algorithm, p.Init)
	}
	if p.InitSplit < 0 {
		return fmt.Errorf("sim: program %q has negative InitSplit %d", p.Algorithm, p.InitSplit)
	}
	if p.InitSplit > 0 && int(p.InitRest) >= len(p.States) {
		return fmt.Errorf("sim: program %q rest initial state %d out of range", p.Algorithm, p.InitRest)
	}
	if p.Params.Faults.Enabled() {
		if err := p.Params.Faults.Validate(); err != nil {
			return err
		}
		if len(p.States) > 256-batchSyntheticStates {
			return fmt.Errorf("sim: program %q has %d states; faulted programs are capped at %d (the engine appends %d synthetic fault states)",
				p.Algorithm, len(p.States), 256-batchSyntheticStates, batchSyntheticStates)
		}
	}
	if p.NeedsIntParam() {
		if p.Params.Tau < 1 {
			return fmt.Errorf("sim: program %q uses EmitRecruitAdaptive with tau %d; want >= 1", p.Algorithm, p.Params.Tau)
		}
		if !(p.Params.FloorDiv > 0) {
			return fmt.Errorf("sim: program %q uses EmitRecruitAdaptive with floorDiv %v; want > 0", p.Algorithm, p.Params.FloorDiv)
		}
	}
	if p.NeedsFloatParam() && !(p.Params.NEstDelta >= 0 && p.Params.NEstDelta < 1) {
		return fmt.Errorf("sim: program %q uses EmitRecruitApproxN with delta %v outside [0, 1)", p.Algorithm, p.Params.NEstDelta)
	}
	for i, st := range p.States {
		if st.Emit > EmitRecruitTransport {
			return fmt.Errorf("sim: program %q state %d: unknown emit opcode %d", p.Algorithm, i, st.Emit)
		}
		if st.Emit == EmitRecruitBit && st.Arg > 1 {
			return fmt.Errorf("sim: program %q state %d: recruit bit %d is not 0 or 1", p.Algorithm, i, st.Arg)
		}
		if st.Emit == EmitRecruitTransport && p.Params.QuorumCarry < 1 {
			return fmt.Errorf("sim: program %q state %d: EmitRecruitTransport with carry %d; want >= 1", p.Algorithm, i, p.Params.QuorumCarry)
		}
		if st.Observe > ObserveInform {
			return fmt.Errorf("sim: program %q state %d: unknown observe opcode %d", p.Algorithm, i, st.Observe)
		}
		kind, kindName := visitOutcome, "search/go"
		if recruitEmit(st.Emit) {
			kind, kindName = recruitOutcome, "recruit"
		}
		if observeKind(st.Observe)&kind == 0 {
			return fmt.Errorf("sim: program %q state %d: %v makes a %s outcome, which %v does not fold", p.Algorithm, i, st.Emit, kindName, st.Observe)
		}
		if st.Observe == ObserveDiscoverQuorum && !(p.Params.QuorumMult > 1) {
			return fmt.Errorf("sim: program %q state %d: ObserveDiscoverQuorum with multiplier %v; want > 1", p.Algorithm, i, p.Params.QuorumMult)
		}
		if st.Observe == ObserveQuorumTransport && !(p.Params.QuorumDocility >= 0 && p.Params.QuorumDocility <= 1) {
			return fmt.Errorf("sim: program %q state %d: ObserveQuorumTransport with docility %v outside [0, 1]", p.Algorithm, i, p.Params.QuorumDocility)
		}
		if int(st.Next) >= len(p.States) {
			return fmt.Errorf("sim: program %q state %d: successor %d out of range", p.Algorithm, i, st.Next)
		}
		if !staticObserve(st.Observe) {
			if int(st.NextB) >= len(p.States) {
				return fmt.Errorf("sim: program %q state %d: alternate successor %d out of range", p.Algorithm, i, st.NextB)
			}
			if st.Observe == ObserveCompareR2 && int(st.NextC) >= len(p.States) {
				return fmt.Errorf("sim: program %q state %d: tertiary successor %d out of range", p.Algorithm, i, st.NextC)
			}
		}
	}
	return nil
}
