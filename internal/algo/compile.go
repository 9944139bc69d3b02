package algo

import (
	"math"

	"github.com/gmrl/househunt/internal/nest"
	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// This file lowers algorithms to the batch engine's compiled form
// (sim.Program). An algorithm that can be compiled implements
// core.BatchCompilable by exposing CompileBatch; the replicate-sweep
// machinery (core.RunBatch, experiment.MeasureConvergence) then executes it
// on the struct-of-arrays fast path, with the scalar agent path as the
// fallback for everything else.
//
// The compiled programs are subject to the invariant contracts in the
// top-level README.md ("Invariants", "Annotation contracts"): the batch
// engine executing them must match the scalar agents draw for draw, which
// cmd/hhlint enforces statically over internal/sim and this package.
//
// Batch-coverage matrix (algorithm × configuration → engine). Any scalar-only
// cfg feature (a non-stock NewMatcher, an agent wrapper other than a fault
// spec) forces the scalar path regardless of the algorithm, and
// core.CompileForBatch's reason names the field that blocked compilation.
// Every algorithm in the package now has a compiled form — only scalar-only
// cfg features fall back. cfg.Trace is not one: core.RunBatch records it
// through sim.TraceObserver with the rows core.Run records.
//
//	algorithm      plain cfg   batch path          notes
//	Simple         batch       lockstep            Algorithm 3
//	Optimal        batch       general (per-ant)   both Case-3 variants
//	Adaptive       batch       lockstep            §6 boosted rate; per-ant phase-clock column
//	QualityAware   batch       lockstep            §6 non-binary qualities; quality·count/n draw
//	ApproxN        batch       lockstep            §6 approximate n; per-ant ñ column (δ ∈ [0,1))
//	Noisy          batch       lockstep            §6 noisy perception; estimator/assessor hooks
//	Quorum         batch       general (per-ant)   §6 quorum/transport; carry-aware matching,
//	                                               threshold in countT, docility draw on capture
//	Spreader       batch       general (split)     information spreading; seed-searcher/waiter
//	                                               split via InitSplit, ObserveInform branching;
//	                                               needs exactly one good nest (else scalar)
//
// Fault-lane coverage (cfg.Wrap × algorithm → engine). A faults.Spec wrapper
// is the one agent wrapper the batch engine can execute: core.CompileForBatch
// recognizes it through the core.BatchFaultWrapper hook and lowers it to
// sim.ProgramParams.Faults, which routes crashed/Byzantine/sleeping ants
// through engine-owned synthetic states. Any other wrapper value stays
// scalar (core.ReasonWrapperScalarOnly):
//
//	cfg.Wrap                 coverage   notes
//	(nil)                    batch      no adversary
//	faults.Spec              batch      crash/Byzantine/sleep lanes; forces the
//	                                    general path; program capped at 252 states
//	faults.Spec+NewSchedule  batch      adaptive schedules: per-round census
//	                                    snapshot → crash/restart/relocate ops,
//	                                    dedicated adversary stream
//	                                    (EffectiveScheduleSalt); restarted ants
//	                                    re-enter at round 1 on pristine per-ant
//	                                    streams
//	core.WrapFunc / custom   scalar     reason: core.ReasonWrapperScalarOnly
//
// Matcher coverage (cfg.NewMatcher × algorithm → engine). The batch engine
// runs the stock pairing models with their scalar draw sequences; only a
// custom Matcher implementation (per-engine scratch the lanes cannot model)
// forces the scalar path:
//
//	matcher                 coverage   notes
//	(default) algorithm1    batch      the paper's Algorithm 1, carry-aware
//	                                   MatchCarry for the transport extension
//	algorithm1 (explicit)   batch      cfg.NewMatcher resolved to the stock type
//	simultaneous            batch      §2 ablation; no CarryMatcher, so quorum
//	                                   configs with carry > 1 stay scalar
//	rendezvous              batch      §2 ablation; same carry restriction
//	custom implementations  scalar     reason names the type and the stock models
//
// Every compiled row is pinned round-for-round bit-identical to its scalar
// agents — for every stock matcher, with and without a fault spec, static or
// adaptive — by the randomized cross-engine differential harness in
// batch_equiv_test.go and the FuzzBatchEquivalence / FuzzBatchFaultEquivalence
// / FuzzBatchAdaptiveFaultEquivalence fuzz targets.
//
// Scaling contract (n × workers → engine). Compilation is colony-size
// independent up to the engine's int32 ant-index limit: the recruit draws
// resolve fixed-point thresholds from a reciprocal (rng.Recip) above the
// 2^16 table crossover, so no compiled form falls back to float kernels or
// allocates per-count tables at large n; each draw call memoizes those
// thresholds on the kernel's full input. The one large-n gate left is
// Quorum's: a threshold M·n that cannot live in the engine's 32-bit
// count register declines to compile (named fallback reason, scalar path).
// Inside the engine a replicate's phase loops — the lockstep capture fold
// included, one chunk of the capture list per shard — shard across workers
// (sim.WithBatchWorkers / sim.WithBatchShards, cfg.BatchWorkers /
// cfg.BatchShards at the runner layer); only per-ant-stream loops
// parallelize — environment and matcher draws stay in a sequential
// ant-order pass — so every worker/shard count reproduces the scalar trace
// bit for bit (pinned at n = 2^16 ± ε and beyond by the ceiling-boundary
// and shard-invariance cells in batch_equiv_test.go).

// CompileBatch implements core.BatchCompilable: Algorithm 3's three-state
// table — search, then the recruit/assess loop. The states correspond
// one-to-one to SimpleAnt's phases and the randomness (a single
// Bernoulli(count/n) per recruit phase, gated on positive quality, which is
// SimpleAnt's active flag) is drawn identically, so batch executions are
// bit-identical to the hand-written SimpleAnt.
func (a Simple) CompileBatch(n int, env sim.Environment) (sim.Program, bool) {
	if n <= 0 || env.K() == 0 {
		return sim.Program{}, false
	}
	return sim.Program{
		Algorithm: a.Name(),
		Init:      0,
		States: []sim.ProgramState{
			{Emit: sim.EmitSearch, Observe: sim.ObserveDiscovery, Next: 1},
			{Emit: sim.EmitRecruitPop, Observe: sim.ObserveAdopt, Next: 2},
			{Emit: sim.EmitGotoNest, Observe: sim.ObserveCount, Next: 1},
		},
	}, true
}

// State indices of the compiled Algorithm 2 table. The layout mirrors the
// pseudocode's structure: the global search round, the active 4-round
// subroutine with its three R2 cases as separate state chains, the passive
// subroutine with a separate pending chain for captured ants, and the
// absorbing final recruit loop. The scalar OptimalAnt's branch register is
// the choice of chain, its pending flag is the P_R3P/P_R4P chain, and its
// phase-boundary next-state latch is each chain's last transition — the
// outcome-dependent successors encode all three, so the lane needs no columns
// for them. Every chain from a block entry (A_R1 or P_R1) back to a block
// entry or to F is exactly four states long, which keeps all non-final ants
// aligned on the pseudocode's R1..R4 positions without any round arithmetic.
const (
	optS0     = iota // round 1: global search
	optAR1           // active R1: recruit(1, nest), learn nest_t     (line 23)
	optAR2           // active R2: go(nest_t), three-way compare      (lines 24-38)
	optAR3C1         // case 1 R3: go(nest)                           (line 28)
	optAR4C1         // case 1 R4: recruit(0, nest), final check      (lines 29-31)
	optAR3C2         // case 2 R3: recruit(0, nest)                   (line 35)
	optAR4C2         // case 2 R4: go(nest), latch passive            (line 36)
	optAR3C3         // case 3 R3: go(nest), population check         (lines 39-41)
	optAR4C3         // case 3 R4: go(nest), stay active              (line 42)
	optAR4C3P        // case 3 R4: go(nest), latch passive            (line 42)
	optPR1           // passive R1: go(nest)                          (line 13)
	optPR2           // passive R2: recruit(0, nest), maybe adopt     (lines 14-17)
	optPR3           // passive R3: go(nest)                          (line 18)
	optPR4           // passive R4: go(nest)                          (line 19)
	optPR3P          // pending R3: go(nest)                          (line 18)
	optPR4P          // pending R4: go(nest), latch final             (line 19)
	optF             // final: recruit(1, nest) forever               (line 21)
)

// optimalBatchProgram is Algorithm 2's compiled state table. literal selects
// the pseudocode-literal Case 3 count handling (stale baseline) over the
// analysis-consistent re-baselining, matching OptimalAnt's Literal knob; the
// two variants differ in exactly one observe opcode.
func optimalBatchProgram(name string, literal bool) sim.Program {
	recount := sim.ObserveRecountRebase
	if literal {
		recount = sim.ObserveRecountLiteral
	}
	return sim.Program{
		Algorithm: name,
		Init:      optS0,
		States: []sim.ProgramState{
			optS0:     {Emit: sim.EmitSearch, Observe: sim.ObserveDiscoverBranch, Next: optAR1, NextB: optPR1},
			optAR1:    {Emit: sim.EmitRecruitBit, Arg: 1, Observe: sim.ObserveRecruitNest, Next: optAR2},
			optAR2:    {Emit: sim.EmitGotoScratch, Observe: sim.ObserveCompareR2, Next: optAR3C1, NextB: optAR3C2, NextC: optAR3C3},
			optAR3C1:  {Emit: sim.EmitGotoNest, Observe: sim.ObserveNone, Next: optAR4C1},
			optAR4C1:  {Emit: sim.EmitRecruitBit, Arg: 0, Observe: sim.ObserveFinalEq, Next: optAR1, NextB: optF},
			optAR3C2:  {Emit: sim.EmitRecruitBit, Arg: 0, Observe: sim.ObserveNone, Next: optAR4C2},
			optAR4C2:  {Emit: sim.EmitGotoNest, Observe: sim.ObserveNone, Next: optPR1},
			optAR3C3:  {Emit: sim.EmitGotoNest, Observe: recount, Next: optAR4C3, NextB: optAR4C3P},
			optAR4C3:  {Emit: sim.EmitGotoNest, Observe: sim.ObserveNone, Next: optAR1},
			optAR4C3P: {Emit: sim.EmitGotoNest, Observe: sim.ObserveNone, Next: optPR1},
			optPR1:    {Emit: sim.EmitGotoNest, Observe: sim.ObserveNone, Next: optPR2},
			optPR2:    {Emit: sim.EmitRecruitBit, Arg: 0, Observe: sim.ObserveAdoptPend, Next: optPR3, NextB: optPR3P},
			optPR3:    {Emit: sim.EmitGotoNest, Observe: sim.ObserveNone, Next: optPR4},
			optPR4:    {Emit: sim.EmitGotoNest, Observe: sim.ObserveNone, Next: optPR1},
			optPR3P:   {Emit: sim.EmitGotoNest, Observe: sim.ObserveNone, Next: optPR4P},
			optPR4P:   {Emit: sim.EmitGotoNest, Observe: sim.ObserveNone, Next: optF},
			optF:      {Emit: sim.EmitRecruitBit, Arg: 1, Observe: sim.ObserveNestLatch, Next: optF, Final: true},
		},
	}
}

// CompileBatch implements core.BatchCompilable: Algorithm 2 lowered to the
// batch engine's outcome-dependent opcode form, in both the
// analysis-consistent and Literal variants. Batch executions are
// round-for-round bit-identical to the scalar OptimalAnt colony (pinned by
// the golden grid in batch_equiv_test.go).
func (o Optimal) CompileBatch(n int, env sim.Environment) (sim.Program, bool) {
	if n <= 0 || env.K() == 0 {
		return sim.Program{}, false
	}
	return optimalBatchProgram(o.Name(), o.Literal), true
}

// CompileBatch implements core.BatchCompilable: the §6 boosted-rate extension
// is Algorithm 3's three-state cycle with the recruit draw swapped for the
// schedule-driven EmitRecruitAdaptive, whose phase clock lives in the lane's
// per-ant integer parameter column. The scalar AdaptiveAnt's active flag is
// modeled by the quality register exactly as in the Simple program (adoption
// sets quality 1; a passive discovery leaves it 0), and the probability
// formula is shared with the scalar ant via sim.AdaptiveRecruitProbability,
// so executions are bit-identical. The builder's defaulting (tau 2, floorDiv
// 4) is applied here so the compiled program matches what Build constructs.
func (ad Adaptive) CompileBatch(n int, env sim.Environment) (sim.Program, bool) {
	if n <= 0 || env.K() == 0 {
		return sim.Program{}, false
	}
	tau, floorDiv := ad.Tau, ad.FloorDiv
	if tau <= 0 {
		tau = 2
	}
	if floorDiv <= 0 {
		floorDiv = 4
	}
	return sim.Program{
		Algorithm: ad.Name(),
		Init:      0,
		States: []sim.ProgramState{
			{Emit: sim.EmitSearch, Observe: sim.ObserveDiscovery, Next: 1},
			{Emit: sim.EmitRecruitAdaptive, Observe: sim.ObserveAdopt, Next: 2},
			{Emit: sim.EmitGotoNest, Observe: sim.ObserveCount, Next: 1},
		},
		Params: sim.ProgramParams{Tau: tau, FloorDiv: floorDiv},
	}, true
}

// CompileBatch implements core.BatchCompilable: the §6 non-binary-quality
// extension compiles to Algorithm 3's cycle with a quality-weighted draw
// (EmitRecruitQual) and two quality-tracking observes: the recruit fold
// resets quality to 0 on adoption (a captured ant prices the unknown nest
// conservatively) and the assess visit re-prices it from the environment.
// No explicit active flag is needed: the scalar QualityAnt only skips the
// Bernoulli call when passive, and a passive ant's quality register is always
// 0, where Bernoulli consumes no randomness anyway — so drawing at
// quality·count/n unconditionally is bit-identical.
func (QualityAware) CompileBatch(n int, env sim.Environment) (sim.Program, bool) {
	if n <= 0 || env.K() == 0 {
		return sim.Program{}, false
	}
	return sim.Program{
		Algorithm: QualityAware{}.Name(),
		Init:      0,
		States: []sim.ProgramState{
			{Emit: sim.EmitSearch, Observe: sim.ObserveDiscovery, Next: 1},
			{Emit: sim.EmitRecruitQual, Observe: sim.ObserveAdoptZero, Next: 2},
			{Emit: sim.EmitGotoNest, Observe: sim.ObserveCountQual, Next: 1},
		},
	}, true
}

// CompileBatch implements core.BatchCompilable: the §6 approximate-n
// extension is Algorithm 3's cycle with the draw probability min(1, count/ñ)
// (EmitRecruitApproxN), where each ant's private estimate ñ lives in the
// lane's per-ant float parameter column. The lane draws ñ from the ant's own
// stream at replicate start — and skips the draw entirely at δ = 0 — exactly
// as the scalar builder does, which keeps every subsequent Bernoulli aligned.
// A δ outside [0, 1) declines to compile so the scalar path surfaces the
// builder's validation error.
func (a ApproxN) CompileBatch(n int, env sim.Environment) (sim.Program, bool) {
	if n <= 0 || env.K() == 0 || a.Delta < 0 || a.Delta >= 1 {
		return sim.Program{}, false
	}
	return sim.Program{
		Algorithm: a.Name(),
		Init:      0,
		States: []sim.ProgramState{
			{Emit: sim.EmitSearch, Observe: sim.ObserveDiscovery, Next: 1},
			{Emit: sim.EmitRecruitApproxN, Observe: sim.ObserveAdopt, Next: 2},
			{Emit: sim.EmitGotoNest, Observe: sim.ObserveCount, Next: 1},
		},
		Params: sim.ProgramParams{NEstDelta: a.Delta},
	}, true
}

// State indices of the compiled lower-bound spreading process. The scalar
// SpreaderAnt's informed flag is membership in sprDone; its searcher flag is
// the sprSearch/sprWait choice, fixed at init via the program's InitSplit
// partition (ants below the split search, the rest wait) — the first compiled
// program whose ants do not all start in one state.
const (
	sprSearch = iota // ignorant searcher: search until the good nest turns up
	sprWait          // ignorant waiter: rest at home, capturable by recruiters
	sprDone          // informed: recruit for the target forever
)

// CompileBatch implements core.BatchCompilable: the §3 lower-bound spreading
// process lowered to three states around the branching ObserveInform opcode,
// which latches the target on any good-nest outcome (search arrival or
// capture — the bound's two information channels). The opcode keys on nest
// quality, so the compile declines unless the environment has exactly one
// good nest — the same restriction Build enforces, and what makes "reached a
// good nest" and "reached the target" the same event. Spreader ants never
// draw from their per-ant streams in either form, so equivalence needs no
// draw alignment at all: searchers consume the engine's environment stream in
// ant order exactly like scalar searchers.
func (s Spreader) CompileBatch(n int, env sim.Environment) (sim.Program, bool) {
	if n <= 0 || env.K() == 0 {
		return sim.Program{}, false
	}
	if len(env.GoodNests()) != 1 {
		return sim.Program{}, false
	}
	seeds := s.Seeds
	if seeds <= 0 {
		seeds = 1
	}
	if seeds > n {
		seeds = n
	}
	prog := sim.Program{
		Algorithm: s.Name(),
		Init:      sprSearch,
		States: []sim.ProgramState{
			sprSearch: {Emit: sim.EmitSearch, Observe: sim.ObserveInform, Next: sprDone, NextB: sprSearch},
			sprWait:   {Emit: sim.EmitRecruitBit, Arg: 0, Observe: sim.ObserveInform, Next: sprDone, NextB: sprWait},
			sprDone:   {Emit: sim.EmitRecruitBit, Arg: 1, Observe: sim.ObserveNone, Next: sprDone},
		},
	}
	if !s.SearchAll && seeds < n {
		prog.InitSplit = seeds
		prog.InitRest = sprWait
	}
	return prog, true
}

// assessHook lowers a nest.Assessor to the batch engine's perception hook.
// Exact assessment (nil or nest.ExactAssessor) lowers to a nil hook so the
// hot path skips the call entirely — nest.ExactAssessor consumes no
// randomness, so skipping it is bit-identical. Every assessor in the nest
// package is a stateless value, which is what the hook contract (concurrent
// calls from worker lanes) requires.
func assessHook(a nest.Assessor) func(float64, *rng.Source) float64 {
	if a == nil {
		return nil
	}
	if _, exact := a.(nest.ExactAssessor); exact {
		return nil
	}
	return a.Assess
}

// countHook lowers a nest.CountEstimator to the batch engine's perception
// hook, with the same exact-perception elision as assessHook.
func countHook(c nest.CountEstimator) func(int, int, *rng.Source) int {
	if c == nil {
		return nil
	}
	if _, exact := c.(nest.ExactCounter); exact {
		return nil
	}
	return c.Estimate
}

// CompileBatch implements core.BatchCompilable: the §6 noisy-perception
// extension is Algorithm 3's three-state cycle with every count and quality
// read routed through the perception hooks, consumed from the ant's own
// stream in NoisyAnt's order (count estimate first, then assessment). The
// scalar ant's active flag is the quality register — 1 exactly when the
// perceived discovery quality exceeds the classification threshold, and set
// to 1 on adoption — so the recruit draw reuses EmitRecruitPop: NoisyAnt
// clamps its probability at 1, but rng.Source's Bernoulli consumes nothing at
// p >= 1 either way, so the unclamped draw is bit-identical. The builder's
// threshold defaulting (0 → 0.5) is applied here so the compiled program
// matches what Build constructs.
func (no Noisy) CompileBatch(n int, env sim.Environment) (sim.Program, bool) {
	if n <= 0 || env.K() == 0 {
		return sim.Program{}, false
	}
	threshold := no.Threshold
	if threshold == 0 {
		threshold = 0.5
	}
	return sim.Program{
		Algorithm: no.Name(),
		Init:      0,
		States: []sim.ProgramState{
			{Emit: sim.EmitSearch, Observe: sim.ObserveDiscoverNoisy, Next: 1},
			{Emit: sim.EmitRecruitPop, Observe: sim.ObserveAdopt, Next: 2},
			{Emit: sim.EmitGotoNest, Observe: sim.ObserveCountNoisy, Next: 1},
		},
		Params: sim.ProgramParams{
			Assess:    assessHook(no.Assessor),
			Count:     countHook(no.Counter),
			Threshold: threshold,
		},
	}, true
}

// State indices of the compiled quorum-transport table. The scalar QuorumAnt's
// three phases alternate search/recruit/assess; its two mode flags map onto
// the state chain instead of register columns: the active flag is the quality
// register (1 canvasser, 0 passive — exactly the Simple encoding, so the
// canvass recruit reuses EmitRecruitPop's gated draw) and the transport flag
// is membership in the quoRT/quoAT chain, whose states are Final because
// QuorumAnt.Decided reports transport. Every chain alternates a recruit state
// with an assess state, so colony-wide the recruit rounds stay aligned — all
// ants recruit in the same rounds, exactly like the scalar colony.
const (
	quoS0 = iota // round 1: global search, classify, self-calibrate threshold
	quoR         // canvass/passive recruit: Bernoulli(count/n) gated on quality
	quoA         // canvass assess: count + quorum check (promote → quoRT)
	quoRT        // transport recruit: carry Params.QuorumCarry, docility on capture
	quoAT        // transport assess: count only (checkQuorum is a no-op)
)

// quorumBatchProgram is the quorum-transport strategy's compiled state table.
func quorumBatchProgram(name string, mult float64, carry int, docility float64, assessor nest.Assessor) sim.Program {
	return sim.Program{
		Algorithm: name,
		Init:      quoS0,
		States: []sim.ProgramState{
			quoS0: {Emit: sim.EmitSearch, Observe: sim.ObserveDiscoverQuorum, Next: quoR},
			quoR:  {Emit: sim.EmitRecruitPop, Observe: sim.ObserveQuorumAdopt, Next: quoA},
			quoA:  {Emit: sim.EmitGotoNest, Observe: sim.ObserveQuorumCheck, Next: quoR, NextB: quoRT},
			quoRT: {Emit: sim.EmitRecruitTransport, Observe: sim.ObserveQuorumTransport, Next: quoAT, NextB: quoA, Final: true},
			quoAT: {Emit: sim.EmitGotoNest, Observe: sim.ObserveCount, Next: quoRT, Final: true},
		},
		Params: sim.ProgramParams{
			Assess:         assessHook(assessor),
			QuorumMult:     mult,
			QuorumCarry:    carry,
			QuorumDocility: docility,
		},
	}
}

// CompileBatch implements core.BatchCompilable: the §6 quorum/transport
// strategy lowered to the general execution path with carry-aware recruitment
// matching. The per-ant quorum threshold lives in the countT scratch register
// (disjoint from Algorithm 2's use of it), the docility Bernoulli consumes
// the captured ant's stream exactly like QuorumAnt's submit check, and the
// builder's defaulting (multiplier 1.5, carry 3, docility 0.25) and
// validation are mirrored here so invalid parameterizations surface the
// scalar builder's error instead of silently compiling. A multiplier large
// enough to overflow the 32-bit threshold register declines to compile.
func (q Quorum) CompileBatch(n int, env sim.Environment) (sim.Program, bool) {
	if n <= 0 || env.K() == 0 {
		return sim.Program{}, false
	}
	if q.Multiplier != 0 && q.Multiplier <= 1 {
		return sim.Program{}, false
	}
	if q.Docility < 0 || q.Docility > 1 {
		return sim.Program{}, false
	}
	mult := q.Multiplier
	if mult <= 1 {
		mult = 1.5
	}
	carry := q.Carry
	if carry < 1 {
		carry = 3
	}
	docility := q.Docility
	if docility <= 0 {
		docility = 0.25
	}
	if mult*float64(n) >= math.MaxInt32 {
		return sim.Program{}, false
	}
	return quorumBatchProgram(q.Name(), mult, carry, docility, q.Assessor), true
}
