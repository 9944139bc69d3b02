package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/gmrl/househunt/internal/rng"
)

// Batch executes R replicate colonies of n ants each, all running one
// compiled Program, as a struct-of-arrays sweep: per-ant state (PFSM state
// id, register file, location) lives in flat slices rather than
// heap-allocated agent objects, and a round resolves with plain switches over
// opcodes — no interface dispatch, no map lookups and no per-round
// allocations on the hot path. Replicates are fanned out across a worker
// pool; each worker owns one lane of flat arrays and streams replicates
// through it.
//
// Two execution paths exist. Programs whose transitions are all
// outcome-independent (Program.Lockstep) keep the whole colony in one shared
// state, so the opcode dispatch happens once per round and the recruit phase
// needs no recruiter/slot indirection because slot t is ant t. Programs with
// branching observes (Algorithm 2) run the general path state-major: each
// round the per-ant state column is regrouped into per-state buckets, the
// emit and observe opcodes dispatch once per occupied state, and recruiting
// ants are assembled into a slot table in ant order so the matcher sees
// exactly the scalar engine's slot space (see stepGeneral).
//
// The recruit draws run on fixed-point kernels at every colony size: each
// Bernoulli probability whose numerator is a population count resolves to an
// rng.Threshold — from a small per-count table below batchTableMaxN, and from
// the exact reciprocal kernels (rng.Recip.Threshold for count/n,
// rng.Recip.ThresholdMul for quality·count/n) above it — so the per-ant inner
// loops compare raw integers with no O(n) table memory. Thresholds beyond
// the table are memoized per draw call (thresholdMemo), so a kernel runs
// once per distinct input rather than once per ant. The threshold transform
// is bit-identical to rng.Source.Bernoulli by construction (see
// rng.Threshold and rng.Recip).
//
// Within one replicate the O(n) phases — regrouping, search and recruit
// draws, emit and observe folds, register init — can additionally be sharded
// across worker goroutines (see Run's worker budget and WithBatchShards).
// Every per-ant draw and search destination is a keyed draw
// (rng.Key.AntWord): a pure function of the replicate's agent key (the
// environment key for searches), the ant, its logical round and a fixed draw
// index, so it lands the same on any shard and in any order, and the lanes
// hold no per-ant RNG state. The one stream a round consumes is matchSrc, in
// the matcher's one sequential call (the Algorithm 1 matcher takes exactly
// one word there, the round key, and keys its shuffle and targets on it).
// The lockstep capture fold splits the matcher's capture list into disjoint
// per-shard chunks, and cross-ant reductions (population tallies,
// commitment deltas, the recruiting-slot prefix) are deterministic sums — so
// results are bit-identical for every shard count, a property the
// differential harness pins.
//
// The recruitment pairing defaults to the paper's Algorithm 1 and can be
// swapped for any capture-listing Matcher via WithBatchMatcher: the engine
// hands the matcher the recruiting slots in scalar engine order, so the
// stock ablation models (SimultaneousMatcher, RendezvousMatcher) run batched
// with exactly their scalar draw sequences.
//
// The engine is bit-compatible with the scalar path: replicate r seeded with
// seeds[r] produces round-for-round identical populations, commitments and
// final results to an Engine running the same algorithm's scalar agents under
// the same seed (pinned for every compiled algorithm — Algorithms 2 and 3 and
// the §6 extensions, including the carry-matched quorum-transport strategy and
// the hook-driven noisy-perception model — and for every stock matcher by the
// randomized cross-engine differential harness in internal/algo).
// That holds because the batch engine derives exactly the same keys and
// streams — the environment key from root.Split(0), matchSrc =
// root.Split(1), the agent key from root.Split(2), the Source an algorithm's
// Build receives — and computes the same keyed words as the scalar agents
// and Engine.resolve, for the same (ant, logical round, draw index), while
// the matcher receives the recruiting slots in ant order as in Engine.Step.
//
// A Batch is reusable and safe for concurrent Run calls; all mutable state
// lives in per-worker lanes.
type Batch struct {
	env        Environment
	prog       Program
	n          int
	workers    int
	shards     int
	obs        BatchObserver
	newMatcher func() Matcher

	// Program traits, computed once at construction.
	lockstep  bool
	decides   bool
	antRNG    bool
	needI     bool
	needF     bool
	usesCarry bool
	faulted   bool

	// Shared read-only fixed-point draw kernels. popT is nil when the
	// program does not use the opcode or the colony is above the
	// table/reciprocal crossover; rcp is the table-free kernel backing every
	// count-ratio draw beyond the table (and all quality-weighted draws at
	// any size), called through a per-call thresholdMemo.
	popT []rng.Threshold // Bernoulli(count/n) by count, EmitRecruitPop
	rcp  rng.Recip       // reciprocal kernels for count/n and q·count/n
	docT rng.Threshold   // Bernoulli(QuorumDocility), ObserveQuorumTransport
}

// batchTableMaxN is the table/reciprocal crossover for the count-ratio draw:
// at or below it the per-count threshold table is materialized (one load per
// draw); above it the draws derive each threshold on the fly from rng.Recip
// (a handful of integer multiplies per draw, no O(n) memory). Both kernels
// produce bit-identical thresholds, so the crossover is purely a
// memory/latency trade — it is no longer a fixed-point ceiling.
const batchTableMaxN = 1 << 16

// batchShardGrain is the smallest per-shard colony slice worth a worker: Run
// stops splitting a replicate once shards would drop below this many ants
// each (explicit WithBatchShards values bypass the grain). Single-seed runs
// at k=8 on a 2-core Xeon shared with other tenants, median of the paired
// shards=2/shards=1 time over 40 seeds: 1.24 at n=2048, 1.16 at 4096, 1.05
// (simple) and 1.16 (optimal) at 8192, 1.04 at 16384, 0.96 and 1.07 at
// 32768, 0.93 and 1.05 at 65536, 0.90 and 0.96 at 131072. Every phase
// dispatch wakes a parked goroutine, so two shards start to pay at about
// 2^14 ants each on the lockstep path (simple) and 2^16 on the general path
// (optimal), which dispatches more phases per round; the grain sits between
// the two. README.md has the full table.
const batchShardGrain = 1 << 15

// BatchResult reports one replicate of a Batch run, mirroring the fields the
// scalar runner derives for core.Result.
type BatchResult struct {
	// Seed is the replicate's root seed.
	Seed uint64
	// Solved reports convergence within the round budget.
	Solved bool
	// Winner is the unanimously chosen nest (0 if unsolved).
	Winner NestID
	// WinnerQuality is q(Winner).
	WinnerQuality float64
	// Rounds is the round at which convergence was detected (the end of the
	// stability window), or the budget if unsolved.
	Rounds int
	// Committed is the final commitment census (index 0 = uncommitted).
	Committed []int
	// Decided counts ants in Final program states at termination, or -1 when
	// the program does not distinguish terminal states — the same convention
	// as core.Census.Decided.
	Decided int
	// Faulty counts the ants that were faulty at termination (Byzantine ants
	// plus crashes that fired), mirroring core.Census.Faulty; sleeping ants
	// are healthy and never counted. Zero without a fault spec.
	Faulty int
}

// BatchOption configures a Batch.
type BatchOption func(*Batch)

// WithBatchWorkers sets Run's total worker budget — the number of concurrent
// replicate lanes times the shards each lane splits its colony across; values
// < 1 select GOMAXPROCS. The budget is spent on replicate-level parallelism
// first (up to one lane per seed) and any surplus on intra-replicate shards,
// so a single-seed run of a large colony still uses the whole budget (see
// WithBatchShards to pin the split explicitly).
func WithBatchWorkers(w int) BatchOption {
	return func(b *Batch) { b.workers = w }
}

// WithBatchShards pins the number of intra-replicate shards per lane,
// bypassing the worker-budget and grain derivation in Run; values < 1 keep
// the automatic choice. Results are bit-identical for every shard count (a
// pinned property); the option exists for tests and benchmarks that fix a
// topology.
func WithBatchShards(s int) BatchOption {
	return func(b *Batch) { b.shards = s }
}

// WithBatchMatcher replaces the recruitment pairing model (default: the
// paper's Algorithm 1). Matchers carry per-engine scratch state, so the
// option takes a factory; every worker lane constructs its own instance, and
// the factory must return a fresh matcher on each call (lanes are built
// concurrently). A nil factory keeps the default. The factory's matchers must
// implement CaptureLister (as every stock matcher does), and programs that
// transport (carry > 1) additionally require CarryMatcher.
func WithBatchMatcher(newMatcher func() Matcher) BatchOption {
	return func(b *Batch) { b.newMatcher = newMatcher }
}

// ErrNoCaptureList reports a batch matcher without CaptureLister: the lanes
// read a round's captures only from the matcher's capture list.
var ErrNoCaptureList = errors.New("sim: batch matcher implements no CaptureLister")

// errNilSchedule reports a FaultSpec.NewSchedule that built no schedule.
var errNilSchedule = errors.New("sim: fault NewSchedule returned nil")

// MaxBatchNests is the most candidate nests a batch environment may hold:
// the lanes store each ant's nest ids, 0..k, in one byte.
const MaxBatchNests = 255

// errTooManyNests reports an environment above MaxBatchNests.
var errTooManyNests = errors.New("sim: batch lanes store nest ids in one byte")

// homeNest is Home as a lane nest byte.
const homeNest = uint8(Home)

// NewBatch builds a batch engine for n-ant colonies of prog in env.
func NewBatch(env Environment, prog Program, n int, opts ...BatchOption) (*Batch, error) {
	if env.K() == 0 {
		return nil, fmt.Errorf("sim: batch needs a non-empty environment")
	}
	if env.K() > MaxBatchNests {
		return nil, fmt.Errorf("%w: k = %d exceeds MaxBatchNests = %d", errTooManyNests, env.K(), MaxBatchNests)
	}
	if n <= 0 {
		return nil, fmt.Errorf("sim: batch needs a positive colony, got %d", n)
	}
	if n > math.MaxInt32 {
		// Ant indices, counts and slot ids are int32 columns throughout the
		// lanes; reject oversized colonies by name instead of wrapping.
		return nil, fmt.Errorf("sim: batch colony %d exceeds the int32 ant-index limit %d", n, math.MaxInt32)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	b := &Batch{
		env:       env,
		prog:      prog,
		n:         n,
		lockstep:  prog.Lockstep(),
		decides:   prog.Decides(),
		antRNG:    prog.NeedsAntRNG(),
		needI:     prog.NeedsIntParam(),
		needF:     prog.NeedsFloatParam(),
		usesCarry: prog.UsesCarry(),
		faulted:   prog.Params.Faults.Enabled(),
	}
	for _, o := range opts {
		o(b)
	}
	if b.newMatcher == nil {
		b.newMatcher = func() Matcher { return &AlgorithmOneMatcher{} }
	}
	probe := b.newMatcher()
	if probe == nil {
		return nil, fmt.Errorf("sim: batch matcher factory returned nil")
	}
	if _, ok := probe.(CaptureLister); !ok {
		return nil, fmt.Errorf("%w: matcher %q", ErrNoCaptureList, probe.Name())
	}
	if _, carryOK := probe.(CarryMatcher); b.usesCarry && prog.Params.QuorumCarry > 1 && !carryOK {
		return nil, fmt.Errorf("sim: program %q transports (carry %d > 1) but matcher %q implements no CarryMatcher",
			prog.Algorithm, prog.Params.QuorumCarry, probe.Name())
	}
	b.buildTables()
	return b, nil
}

// buildTables materializes the shared fixed-point draw kernels for the
// opcodes the program actually uses. Every kernel resolves the exact
// threshold of the exact float probability the scalar agents feed to
// Bernoulli, so kernel draws and float draws are interchangeable bit for bit
// at any colony size: the count-ratio draw uses a per-count table up to the
// batchTableMaxN crossover and the rng.Recip reciprocal above it, and the
// quality-weighted draw uses rng.Recip.ThresholdMul everywhere (its former
// (k+1)×(n+1) table cost O(k·n) threshold entries — ~134 MB at the old
// ceiling with 255 nests — for no exactness gain). The adaptive draw needs
// no shared kernel: its divisor count+decay varies with the colony's phase
// clock, so each draw call memoizes its own thresholds in a thresholdMemo
// keyed on the count.
func (b *Batch) buildTables() {
	var hasPop, hasQual, hasDoc bool
	for _, st := range b.prog.States {
		switch st.Emit {
		case EmitRecruitPop:
			hasPop = true
		case EmitRecruitQual:
			hasQual = true
		}
		if st.Observe == ObserveQuorumTransport {
			hasDoc = true
		}
	}
	if hasDoc {
		b.docT = rng.NewThreshold(b.prog.Params.QuorumDocility)
	}
	n := b.n
	if hasPop || hasQual {
		b.rcp = rng.NewRecip(n)
	}
	if hasPop && n <= batchTableMaxN {
		nF := float64(n)
		b.popT = make([]rng.Threshold, n+1)
		for c := 0; c <= n; c++ {
			b.popT[c] = rng.NewThreshold(float64(c) / nF)
		}
	}
}

// N returns the colony size per replicate.
func (b *Batch) N() int { return b.n }

// K returns the number of candidate nests.
func (b *Batch) K() int { return b.env.K() }

// Run executes one replicate per seed and returns the results in seed order.
// maxRounds bounds each replicate; window is the stability window in rounds
// (values < 1 mean 1), both matching the scalar runner's semantics. The first
// replicate error aborts the run: a compiled program emitting an invalid
// call, a nil fault schedule, or a panic in user code the lanes call (a
// fault schedule, a perception hook, an observer or a matcher), which comes
// back as an error naming the replicate, its seed and the round instead of
// ending the process.
func (b *Batch) Run(seeds []uint64, maxRounds, window int) ([]BatchResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sim: batch run needs at least one seed")
	}
	if maxRounds <= 0 {
		return nil, fmt.Errorf("sim: batch run needs positive maxRounds, got %d", maxRounds)
	}
	if window < 1 {
		window = 1
	}
	// Split the worker budget: replicate-level lanes first (they parallelize
	// with zero coordination), then any surplus as intra-replicate shards —
	// so an R=1 run of a large colony still uses the whole budget instead of
	// clamping to one core. The grain stops sharding colonies too small to
	// amortize the fan-out; an explicit WithBatchShards bypasses both.
	workers := b.workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	lanes := workers
	if lanes > len(seeds) {
		lanes = len(seeds)
	}
	shards := b.shards
	if shards < 1 {
		shards = workers / lanes
		if maxShards := b.n / batchShardGrain; shards > maxShards {
			shards = maxShards
		}
		if shards < 1 {
			shards = 1
		}
	}

	results := make([]BatchResult, len(seeds))
	var next atomic.Int64
	// firstErr holds only errors fmt.Errorf wraps with a single %w: an
	// atomic.Value panics when its stores mix concrete types.
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < lanes; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// runReplicate recovers a replicate's panics; this catches the
			// lane set-up's (the matcher factory, LaneObserver).
			defer func() {
				if v := recover(); v != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("sim: batch lane %d: %w", w, newLanePanic("set-up", v)))
				}
			}()
			ln := newLane(b, shards)
			defer ln.close()
			var obs LaneObserver
			if b.obs != nil {
				obs = b.obs.LaneObserver(w)
			}
			for {
				rep := int(next.Add(1)) - 1
				if rep >= len(seeds) || firstErr.Load() != nil {
					return
				}
				res, err := ln.runReplicate(rep, seeds[rep], maxRounds, window, obs)
				if err != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("sim: batch replicate %d (seed %d): %w", rep, seeds[rep], err))
					return
				}
				results[rep] = res
			}
		}(w)
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		return nil, err.(error)
	}
	return results, nil
}

// lanePanic is a panic recovered on a lane goroutine, returned as the run's
// error. at names where the lane was: "round N" of a replicate (round 0
// while the replicate resets), or "set-up" before any replicate. A panic on
// a shard arrives as a *shardPanic, which names the shard and keeps its own
// stack; Unwrap exposes it (or any other error value) to errors.As.
type lanePanic struct {
	at    string
	value any
	stack []byte // nil when value is a *shardPanic
}

func newLanePanic(at string, v any) *lanePanic {
	e := &lanePanic{at: at, value: v}
	if _, ok := v.(*shardPanic); !ok {
		e.stack = debug.Stack()
	}
	return e
}

func (e *lanePanic) Error() string {
	if e.stack == nil {
		return fmt.Sprintf("%s: %v", e.at, e.value)
	}
	return fmt.Sprintf("%s: panicked: %v\n\n%s", e.at, e.value, e.stack)
}

func (e *lanePanic) Unwrap() error {
	err, _ := e.value.(error)
	return err
}

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
	actBit   []uint8
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
	shErrNest  []uint8

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

	matcher CaptureLister // NewBatch admits only capture-listing matchers
	carryM  CarryMatcher  // matcher's carry form; nil when unimplemented

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
		ln.actBit = make([]uint8, n)
		ln.preState = make([]uint8, n)
		ln.slotNest = make([]uint8, n)
		ln.shNRecr = make([]int32, shards)
		ln.shSlotBase = make([]int32, shards)
		ln.shFinals = make([]int32, shards)
		ln.shTrans = make([]uint8, shards)
		ln.shErrKind = make([]uint8, shards)
		ln.shErrState = make([]int32, shards)
		ln.shErrAnt = make([]int32, shards)
		ln.shErrNest = make([]uint8, shards)
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
		// surface the identical error for the first such ant.
		commit := ln.commit
		if commit[Home] != 0 {
			for i := range nest {
				if dest := nest[i]; dest < 1 || int(dest) > k {
					return 0, fmt.Errorf("ant %d: go(%d): nest out of range 1..%d", i, dest, k)
				}
			}
		}
		copy(counts, commit)
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
	n := ln.n
	nest := ln.nest
	count := ln.count
	quality := ln.quality
	counts := ln.counts
	qual := ln.qual
	switch ln.states[ln.phPhase].Observe {
	case ObserveDiscovery:
		for i := lo; i < hi; i++ {
			outNest := act[i]
			if outNest != nest[i] {
				commit[nest[i]]--
				commit[outNest]++
				nest[i] = outNest
			}
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
		countHook, assessHook := ln.prog.Params.Count, ln.prog.Params.Assess
		threshold := ln.prog.Params.Threshold
		key, r := ln.agentKey, ln.round
		src := &ln.shSrc[sh].Source
		for i := lo; i < hi; i++ {
			outNest := act[i]
			if outNest != nest[i] {
				commit[nest[i]]--
				commit[outNest]++
				nest[i] = outNest
			}
			c, q := counts[outNest], qual[outNest]
			// Each hook draws from the scratch Source reseeded with its own
			// keyed word, as NoisyAnt's observe does.
			if countHook != nil {
				key.ReseedAnt(src, i, r, rng.DrawCount)
				c = countHook(c, n, src)
			}
			count[i] = countReg(c)
			if assessHook != nil {
				key.ReseedAnt(src, i, r, rng.DrawAssess)
				q = assessHook(q, src)
			}
			if q > threshold {
				quality[i] = 1
			} else {
				quality[i] = 0
			}
		}
	case ObserveCountNoisy:
		countHook := ln.prog.Params.Count
		key, r := ln.agentKey, ln.round
		src := &ln.shSrc[sh].Source
		for i := lo; i < hi; i++ {
			c := counts[act[i]]
			if countHook != nil {
				key.ReseedAnt(src, i, r, rng.DrawCount)
				c = countHook(c, n, src)
			}
			count[i] = countReg(c)
		}
	}
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
		i := int(ln.shErrAnt[errSh])
		nst := ln.shErrNest[errSh]
		st := &states[ln.shErrState[errSh]]
		switch ln.shErrKind[errSh] {
		case errGotoNest:
			return fmt.Errorf("ant %d: go(%d): nest out of range 1..%d", i, nst, k)
		case errGotoScratch:
			return fmt.Errorf("ant %d: go(%d): scratch nest out of range 1..%d", i, nst, k)
		case errRecruitHome:
			return fmt.Errorf("ant %d: recruit(1,0): cannot actively recruit for the home nest", i)
		case errRecruitRange:
			return fmt.Errorf("ant %d: recruit(%d,%d): nest out of range 0..%d", i, st.Arg, nst, k)
		default: // errTransport
			return fmt.Errorf("ant %d: transport(%d): nest out of range 1..%d", i, nst, k)
		}
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
	case carries == nil:
		ln.phMode = asmScan
	default:
		ln.phMode = asmCarry
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
	active := ln.active
	if nR > 0 {
		//hh:draws matcher dispatch mirrors the scalar call sequence; MatchCarry with all-ones carries draws exactly like Match (a pinned property)
		if anyCarry := sawTransport && ln.prog.Params.QuorumCarry > 1; anyCarry {
			if ln.carryM == nil {
				return fmt.Errorf("transport (carry > 1) unsupported by matcher %q", ln.matcher.Name())
			}
			ln.carryM.MatchCarry(nR, active, carries, &ln.matchSrc, nil, nil)
		} else {
			ln.matcher.Match(nR, active, &ln.matchSrc, nil, nil)
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
				if outNest != nest[i] {
					commit[nest[i]]--
					commit[outNest]++
					nest[i] = outNest
				}
			case ObserveAdopt:
				if outNest != nest[i] {
					commit[nest[i]]--
					commit[outNest]++
					nest[i] = outNest
					quality[i] = 1
				}
			case ObserveAdoptZero:
				if outNest != nest[i] {
					commit[nest[i]]--
					commit[outNest]++
					nest[i] = outNest
					quality[i] = 0
				}
			case ObserveAdoptPend:
				if outNest != nest[i] {
					commit[nest[i]]--
					commit[outNest]++
					nest[i] = outNest
					state[i] = st.NextB // enter the pending chain
					finals += int(isFinal[st.NextB]) - int(isFinal[st.Next])
				}
			case ObserveRecruitNest:
				nestT[i] = outNest
			case ObserveQuorumAdopt:
				if outNest != nest[i] {
					commit[nest[i]]--
					commit[outNest]++
					nest[i] = outNest
				}
				quality[i] = 1
			case ObserveQuorumTransport:
				// The docility coin is the CAPTURED ant's DrawDocility word,
				// exactly like QuorumAnt's submit check, on the precompiled
				// fixed-point threshold.
				if ln.docT.Accept(ln.agentKey.AntWord(i, ln.antRound(i), rng.DrawDocility)) {
					if outNest != nest[i] {
						commit[nest[i]]--
						commit[outNest]++
						nest[i] = outNest
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
	asmScan                  // compacting scan, no carry column
	asmCarry                 // compacting scan, carry column filled
)

// Emit-phase error kinds parked in lane.shErrKind by parkErr.
const (
	errNone uint8 = iota
	errGotoNest
	errGotoScratch
	errRecruitHome
	errRecruitRange
	errTransport
)

// parkErr records the first invalid emit a shard's scan encounters as a
// compact (kind, state, ant, nest) record; stepGeneral's reduce min-picks
// across shards by (state, ant) — within one state, lower shards hold lower
// ant indices — and materializes the fmt.Errorf there, so the parallel scan
// stays allocation-free and reports exactly the sequential scan's first
// error.
//
//hh:coldpath
func (ln *lane) parkErr(sh int, kind uint8, s, i int, nst uint8) {
	if ln.shErrKind[sh] != errNone {
		return
	}
	ln.shErrKind[sh] = kind
	ln.shErrState[sh] = int32(s)
	ln.shErrAnt[sh] = int32(i)
	ln.shErrNest[sh] = nst
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
// words; the coin loops are branch-free like drawActiveRange's.
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
					actBit[i] = 0
					preState[i] = uint8(s)
					nRecr++
				}
			}
			continue
		}
		st := &states[s]
		if recruitEmit(st.Emit) {
			nRecr += len(members)
		}
		switch st.Emit {
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
		case EmitGotoNest:
			for _, i32 := range members {
				i := int(i32)
				dest := nest[i]
				if uint(dest)-1 >= uint(k) { // dest < 1 || dest > k, one compare
					ln.parkErr(sh, errGotoNest, s, i, dest)
					continue
				}
				actNest[i] = dest
				counts[dest]++
				isRecr[i] = 0
			}
		case EmitGotoScratch:
			nestT := ln.nestT
			for _, i32 := range members {
				i := int(i32)
				dest := nestT[i]
				if uint(dest)-1 >= uint(k) {
					ln.parkErr(sh, errGotoScratch, s, i, dest)
					continue
				}
				actNest[i] = dest
				counts[dest]++
				isRecr[i] = 0
			}
		case EmitRecruitBit:
			// The fixed bit is state-uniform, so the Home-forbidden check of
			// active recruits folds into the range compare per sub-loop.
			if st.Arg == 1 {
				for _, i32 := range members {
					i := int(i32)
					adv := nest[i]
					if uint(adv)-1 >= uint(k) { // adv < 1 || adv > k
						if adv == homeNest {
							ln.parkErr(sh, errRecruitHome, s, i, adv)
						} else {
							ln.parkErr(sh, errRecruitRange, s, i, adv)
						}
						continue
					}
					actNest[i] = adv
					isRecr[i] = 1
					actBit[i] = 1
					preState[i] = uint8(s)
				}
			} else {
				for _, i32 := range members {
					i := int(i32)
					adv := nest[i]
					if uint(adv) > uint(k) { // Home is allowed for passive recruits
						ln.parkErr(sh, errRecruitRange, s, i, adv)
						continue
					}
					actNest[i] = adv
					isRecr[i] = 1
					actBit[i] = 0
					preState[i] = uint8(s)
				}
			}
		case EmitRecruitTransport:
			ln.shTrans[sh] = 1
			for _, i32 := range members {
				i := int(i32)
				adv := nest[i]
				if uint(adv)-1 >= uint(k) {
					ln.parkErr(sh, errTransport, s, i, adv)
					continue
				}
				actNest[i] = adv
				isRecr[i] = 2
				actBit[i] = 1
				preState[i] = uint8(s)
			}
		case EmitRecruitPop:
			popT := ln.popT
			var memo thresholdMemo
			memo.reset()
			for _, i32 := range members {
				i := int(i32)
				var t rng.Threshold
				if popT != nil {
					t = popT[min(max(int(count[i]), 0), n)]
				} else {
					// Above the table crossover the threshold comes from the
					// memoized reciprocal, whose sentinels resolve c outside
					// (0, n).
					c := count[i]
					var ok bool
					if t, ok = memo.find(0, c); !ok {
						t = memo.put(0, c, ln.rcp.Threshold(int(c)))
					}
				}
				if !(quality[i] > 0) {
					t = rng.ThresholdNever
				}
				b := t.Accept(key.AntWord(i, ln.antRound(i), rng.DrawRecruit))
				adv := nest[i]
				if b && adv == homeNest {
					ln.parkErr(sh, errRecruitHome, s, i, adv)
					continue
				}
				actNest[i] = adv
				isRecr[i] = 1
				if b {
					actBit[i] = 1
				} else {
					actBit[i] = 0
				}
				preState[i] = uint8(s)
			}
		case EmitRecruitQual:
			var memo thresholdMemo
			memo.reset()
			for _, i32 := range members {
				i := int(i32)
				// The memoized kernel returns the exact threshold of the
				// scalar expression q·c/n — q = 0 and out-of-range counts
				// included — so the loop needs no guards and no floats at
				// any colony size.
				q, c := quality[i], count[i]
				qb := math.Float64bits(q)
				t, ok := memo.find(qb, c)
				if !ok {
					t = memo.put(qb, c, ln.rcp.ThresholdMul(q, int(c)))
				}
				b := t.Accept(key.AntWord(i, ln.antRound(i), rng.DrawRecruit))
				adv := nest[i]
				if b && adv == homeNest {
					ln.parkErr(sh, errRecruitHome, s, i, adv)
					continue
				}
				actNest[i] = adv
				isRecr[i] = 1
				if b {
					actBit[i] = 1
				} else {
					actBit[i] = 0
				}
				preState[i] = uint8(s)
			}
		case EmitRecruitAdaptive:
			// Per-ant phase clocks defeat both a per-call memo and a
			// reciprocal (each ant may sit at a different decay); the float
			// formula is bit-identical to the scalar AdaptiveAnt by
			// construction.
			tau, floorDiv := ln.prog.Params.Tau, ln.prog.Params.FloorDiv
			paramI := ln.paramI
			for _, i32 := range members {
				i := int(i32)
				p := AdaptiveRecruitProbability(n, int(count[i]), int(paramI[i]), tau, floorDiv)
				if !(quality[i] > 0) {
					p = 0
				}
				b := rng.WordFloat64(key.AntWord(i, ln.antRound(i), rng.DrawRecruit)) < p
				paramI[i]++
				adv := nest[i]
				if b && adv == homeNest {
					ln.parkErr(sh, errRecruitHome, s, i, adv)
					continue
				}
				actNest[i] = adv
				isRecr[i] = 1
				if b {
					actBit[i] = 1
				} else {
					actBit[i] = 0
				}
				preState[i] = uint8(s)
			}
		case EmitRecruitApproxN:
			paramF := ln.paramF
			for _, i32 := range members {
				i := int(i32)
				p := float64(count[i]) / paramF[i] //hh:floatok per-ant ñ defeats fixed-point kernels; the float coin is ApproxNAnt's
				if !(quality[i] > 0) {
					p = 0
				}
				b := rng.WordFloat64(key.AntWord(i, ln.antRound(i), rng.DrawRecruit)) < p
				adv := nest[i]
				if b && adv == homeNest {
					ln.parkErr(sh, errRecruitHome, s, i, adv)
					continue
				}
				actNest[i] = adv
				isRecr[i] = 1
				if b {
					actBit[i] = 1
				} else {
					actBit[i] = 0
				}
				preState[i] = uint8(s)
			}
		}
	}
	ln.shNRecr[sh] = int32(nRecr)
}

// assembleShard is the fnAssemble phase body: build one shard's stretch of
// the recruiting slot table. The compacting modes use guarded writes (the
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
		actBit := ln.actBit
		active := ln.active
		for i := lo; i < hi; i++ {
			active[i] = actBit[i] != 0
		}
		copy(ln.slotNest[lo:hi], ln.actNest[lo:hi])
	case asmNone:
		for i := lo; i < hi; i++ {
			slotOf[i] = -1
		}
	case asmScan:
		rec := ln.recruiters[:ln.n]
		active := ln.active
		slotNest := ln.slotNest
		actNest := ln.actNest
		actBit := ln.actBit
		isRecr := ln.isRecr
		w := int(ln.shSlotBase[sh])
		for i := lo; i < hi; i++ {
			if isRecr[i] != 0 {
				rec[w] = int32(i)
				active[w] = actBit[i] != 0
				slotNest[w] = actNest[i]
				slotOf[i] = int32(w)
				w++
			} else {
				slotOf[i] = -1
			}
		}
	case asmCarry:
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
			if r := isRecr[i]; r != 0 {
				rec[w] = int32(i)
				active[w] = actBit[i] != 0
				slotNest[w] = actNest[i]
				c := 1
				if r == 2 {
					c = qc
				}
				carries[w] = c
				slotOf[i] = int32(w)
				w++
			} else {
				slotOf[i] = -1
			}
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
	n, k := ln.n, ln.k
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
	key := ln.agentKey
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
				if outNest != nest[i] {
					commit[nest[i]]--
					commit[outNest]++
					nest[i] = outNest
				}
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
				if outNest != nest[i] {
					commit[nest[i]]--
					commit[outNest]++
					nest[i] = outNest
				}
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
					commit[nest[i]]--
					commit[nestT[i]]++
					nest[i] = nestT[i]
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
			countHook, assessHook := ln.prog.Params.Count, ln.prog.Params.Assess
			threshold := ln.prog.Params.Threshold
			for _, i32 := range members {
				i := int(i32)
				outNest := actNest[i]
				if outNest != nest[i] {
					commit[nest[i]]--
					commit[outNest]++
					nest[i] = outNest
				}
				c := counts[outNest]
				if countHook != nil {
					src := &ln.shSrc[sh].Source
					key.ReseedAnt(src, i, ln.antRound(i), rng.DrawCount)
					c = countHook(c, n, src)
				}
				count[i] = countReg(c)
				q := qual[outNest]
				if assessHook != nil {
					src := &ln.shSrc[sh].Source
					key.ReseedAnt(src, i, ln.antRound(i), rng.DrawAssess)
					q = assessHook(q, src)
				}
				if q > threshold {
					quality[i] = 1
				} else {
					quality[i] = 0
				}
				state[i] = next0
			}
			finals += int(isFinal[next0]) * len(members)
		case ObserveCountNoisy:
			countHook := ln.prog.Params.Count
			for _, i32 := range members {
				i := int(i32)
				c := counts[actNest[i]]
				if countHook != nil {
					src := &ln.shSrc[sh].Source
					key.ReseedAnt(src, i, ln.antRound(i), rng.DrawCount)
					c = countHook(c, n, src)
				}
				count[i] = countReg(c)
				state[i] = next0
			}
			finals += int(isFinal[next0]) * len(members)
		case ObserveDiscoverQuorum:
			assessHook := ln.prog.Params.Assess
			mult := ln.prog.Params.QuorumMult
			for _, i32 := range members {
				i := int(i32)
				outNest := actNest[i]
				if outNest != nest[i] {
					commit[nest[i]]--
					commit[outNest]++
					nest[i] = outNest
				}
				outCount := int32(counts[outNest])
				count[i] = outCount
				q := qual[outNest]
				if assessHook != nil {
					src := &ln.shSrc[sh].Source
					key.ReseedAnt(src, i, ln.antRound(i), rng.DrawAssess)
					q = assessHook(q, src)
				}
				if q > 0.5 {
					quality[i] = 1
				} else {
					quality[i] = 0
				}
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
					commit[nest[i]]--
					commit[outNest]++
					nest[i] = outNest
					next = next0
				}
				state[i] = next
				finals += int(isFinal[next])
			}
		}
	}
	ln.shFinals[sh] = int32(finals)
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
		if cb := captors[j]; cb != t32 {
			if outNest := actNest[cb]; outNest != nest[i] {
				commit[nest[i]]--
				commit[outNest]++
				nest[i] = outNest
				ln.quality[i] = q
			}
		}
	}
}
