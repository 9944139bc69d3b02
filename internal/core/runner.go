package core

import (
	"errors"
	"fmt"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/trace"
)

// RunConfig parameterizes one house-hunting execution.
type RunConfig struct {
	// N is the colony size; must be positive.
	N int
	// Env is the nest landscape.
	Env sim.Environment
	// Seed is the root seed; engine and agent randomness derive from it.
	Seed uint64
	// MaxRounds bounds the execution; 0 selects a generous default of
	// 64·(k+1)·(log2 n + 1) rounds, comfortably above both algorithms'
	// high-probability bounds.
	MaxRounds int
	// StabilityWindow requires convergence to persist for this many
	// consecutive rounds before the run is declared solved; 0 means 1
	// (first detection wins). The paper's problem statement quantifies over
	// all rounds ≥ T, so experiments use a window > 1 to catch regressions
	// where commitment flickers.
	StabilityWindow int
	// NewMatcher, when non-nil, constructs the recruitment pairing model for
	// each run (default Algorithm 1). It is a factory rather than an instance
	// because matchers carry per-engine scratch state and must not be shared
	// across concurrent runs.
	NewMatcher func() sim.Matcher
	// Trace, when non-nil, receives one row per executed round: the round,
	// its end-of-round populations and its commitment census. It must be
	// built for Env.K() nests. Both engines fill it with the same rows: Run
	// records the census its convergence check takes, and RunBatch attaches
	// a sim.TraceObserver, which records one replicate, so a traced batch
	// run takes exactly one seed and no other observer.
	Trace *trace.Trace
	// Strict toggles §2 protocol validation (default on).
	Strict *bool
	// Wrap post-processes the built agents (fault injection, asynchrony);
	// it must preserve slice length. Wrappers are scalar-only in general —
	// RunBatch declines wrapped configs — EXCEPT fault specs implementing
	// BatchFaultWrapper (faults.Spec), which compile to the batch engine's
	// fault lanes. Plain functions adapt via WrapFunc.
	Wrap AgentWrapper
	// BatchWorkers, when positive, caps the batch engine's worker-goroutine
	// budget (sim.WithBatchWorkers); 0 keeps the engine default of
	// GOMAXPROCS. Scalar runs ignore it. Workers are first spread across
	// replicate lanes, and any surplus shards each lane's colony.
	BatchWorkers int
	// BatchShards, when positive, forces the per-lane shard count
	// (sim.WithBatchShards); 0 lets the engine derive it from the worker
	// budget. Results are bit-identical for every shard count — the knob
	// trades fan-out overhead against per-round parallelism only.
	BatchShards int
}

// AgentWrapper post-processes a built colony — fault injection, asynchrony —
// before the engine runs it. The seed is the run's root seed, from which a
// wrapper derives its private victim stream (by convention
// rng.New(seed).Split(salt) for a wrapper-chosen salt), so a colony wraps
// identically however the wrapper is invoked.
type AgentWrapper interface {
	WrapAgents(seed uint64, agents []sim.Agent) ([]sim.Agent, error)
}

// WrapFunc adapts a bare wrapper function (one that owns its randomness, like
// the async.Plan builder) to the AgentWrapper interface, ignoring the seed.
type WrapFunc func([]sim.Agent) ([]sim.Agent, error)

// WrapAgents implements AgentWrapper.
func (f WrapFunc) WrapAgents(_ uint64, agents []sim.Agent) ([]sim.Agent, error) {
	return f(agents)
}

// Result reports one execution.
type Result struct {
	// Solved is true when convergence was detected within the round budget.
	Solved bool
	// Winner is the unanimously chosen nest (0 if unsolved).
	Winner sim.NestID
	// WinnerQuality is q(Winner).
	WinnerQuality float64
	// Rounds is the round at which convergence was first detected (the end
	// of the stability window, if one was configured); if unsolved it is the
	// number of rounds executed.
	Rounds int
	// FinalCensus is the commitment census at termination.
	FinalCensus Census
	// Algorithm is the algorithm's name.
	Algorithm string
}

// defaultMaxRounds computes the documented default round budget.
func defaultMaxRounds(n, k int) int {
	log2n := 0
	for v := n; v > 1; v >>= 1 {
		log2n++
	}
	return 64 * (k + 1) * (log2n + 1)
}

// checkTrace rejects a trace built for another nest count; both engines
// call it before running, so a wrong-k trace fails the same way on each.
func checkTrace(cfg RunConfig) error {
	if cfg.Trace != nil && cfg.Trace.NumNests() != cfg.Env.K() {
		return fmt.Errorf("core: cfg.Trace built for %d nests, environment has %d", cfg.Trace.NumNests(), cfg.Env.K())
	}
	return nil
}

// buildColony validates cfg, builds the algorithm's agents and applies the
// wrapper, enforcing the colony-size contract at every stage.
func buildColony(algo Algorithm, cfg RunConfig) ([]sim.Agent, error) {
	if algo == nil {
		return nil, errNilAlgorithm
	}
	if cfg.N <= 0 {
		return nil, errBadColony
	}
	if cfg.Env.K() == 0 {
		return nil, errors.New("core: empty environment")
	}
	if err := checkTrace(cfg); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	agents, err := algo.Build(cfg.N, cfg.Env, root.Split(2))
	if err != nil {
		return nil, wrapBuild(algo.Name(), err)
	}
	if len(agents) != cfg.N {
		return nil, fmt.Errorf("core: %s built %d agents for n=%d", algo.Name(), len(agents), cfg.N)
	}
	if cfg.Wrap != nil {
		agents, err = cfg.Wrap.WrapAgents(cfg.Seed, agents)
		if err != nil {
			return nil, fmt.Errorf("core: wrapping agents: %w", err)
		}
		if len(agents) != cfg.N {
			return nil, fmt.Errorf("core: wrapper changed colony size to %d", len(agents))
		}
	}
	return agents, nil
}

// Run executes one colony of algo on cfg and reports the result. The error
// return covers configuration and protocol failures; failing to converge
// within the budget is NOT an error — it is Result.Solved == false — because
// non-convergence is a measured outcome for the lower-bound and fault
// experiments. Run always uses the scalar engine: it is the reference the
// batch engine is checked against, cfg.Trace's rows included.
func Run(algo Algorithm, cfg RunConfig) (Result, error) {
	agents, err := buildColony(algo, cfg)
	if err != nil {
		return Result{}, err
	}
	opts := []sim.Option{sim.WithSeed(cfg.Seed)}
	if cfg.NewMatcher != nil {
		opts = append(opts, sim.WithMatcher(cfg.NewMatcher()))
	}
	if cfg.Strict != nil {
		opts = append(opts, sim.WithStrict(*cfg.Strict))
	}
	engine, err := sim.New(cfg.Env, agents, opts...)
	if err != nil {
		return Result{}, fmt.Errorf("core: constructing engine: %w", err)
	}

	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = defaultMaxRounds(cfg.N, cfg.Env.K())
	}
	window := cfg.StabilityWindow
	if window <= 0 {
		window = 1
	}

	res := Result{Algorithm: algo.Name()}
	streak := 0
	var winner sim.NestID
	until := func(e *sim.Engine) bool {
		census := TakeCensus(agents, cfg.Env.K())
		if cfg.Trace != nil {
			// checkTrace matched the trace to k, so both rows have the
			// length RecordRound wants and it cannot fail.
			_ = cfg.Trace.RecordRound(e.Round(), e.Counts(), census.Committed)
		}
		w, ok := census.Converged(cfg.Env)
		switch {
		case !ok:
			streak = 0
		case streak == 0 || w == winner:
			winner = w
			streak++
		default: // converged but to a different nest than the streak's
			winner = w
			streak = 1
		}
		return streak >= window
	}

	rounds, err := engine.Run(maxRounds, until)
	if err != nil {
		return Result{}, fmt.Errorf("core: running %s: %w", algo.Name(), err)
	}

	res.Rounds = rounds
	res.FinalCensus = TakeCensus(agents, cfg.Env.K())
	if streak >= window {
		res.Solved = true
		res.Winner = winner
		res.WinnerQuality = cfg.Env.Quality(winner)
	}
	return res, nil
}
