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
// shards=2/shards=1 time over 40 seeds, simple and optimal: 1.35 and 1.05
// at n=2048, 0.97 and 0.99 at 4096, 0.80 and 0.82 at 8192, and 0.76–0.87
// from 16384 to 131072. With the polling shard pool two shards pay from
// 2^12 ants each on both paths; the grain was set at 2^15 when every phase
// dispatch woke a parked goroutine, and lowering it is a claim of its own
// (ROADMAP.md item 6). README.md has the full table.
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
