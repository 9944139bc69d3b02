package core

import (
	"fmt"

	"github.com/gmrl/househunt/internal/sim"
)

// BatchCompilable is implemented by algorithms that can lower themselves to
// the batch engine's compiled form (sim.Program). CompileBatch returns
// ok = false when the algorithm cannot be compiled for the given parameters;
// callers then fall back to the scalar agent path.
type BatchCompilable interface {
	Algorithm
	CompileBatch(n int, env sim.Environment) (sim.Program, bool)
}

// BatchFaultWrapper is an AgentWrapper whose effect the batch engine can
// reproduce natively: a declarative fault spec (faults.Spec) that lowers to
// sim.FaultSpec fault lanes. CompileForBatch recognizes the interface and
// compiles such configs instead of declining cfg.Wrap; any other wrapper is
// an arbitrary per-agent transformation and stays scalar. The boolean mirrors
// Enabled(): a disabled spec wraps as the identity and batches as a plain
// (fault-free) program. Adaptive schedules ride through the same lowering —
// the lowered sim.FaultSpec carries NewSchedule/ScheduleSalt, and the batch
// engine runs the schedule against its own per-round census snapshot with a
// dedicated adversary stream, so scheduled runs stay batch-eligible and
// bit-identical to the scalar path.
type BatchFaultWrapper interface {
	AgentWrapper
	BatchFaults() (sim.FaultSpec, bool)
}

// ReasonWrapperScalarOnly is CompileForBatch's decline reason for a cfg.Wrap
// holding a custom wrapper (not a BatchFaultWrapper), e.g. async plans or
// hand-rolled agent decoration. It is exported so the harness layers (algo
// tests, the facade's Result.EngineReason) can assert the exact routing cause
// instead of matching an ad-hoc substring.
const ReasonWrapperScalarOnly = "cfg.Wrap is set (agent wrappers other than fault specs are scalar-only)"

// batchMatcherFactory resolves cfg.NewMatcher for the batch engine. The
// engine compiles the stock matcher models — the default Algorithm 1 pairing
// (including its carry-aware transport form) and the §6 ablations
// (SimultaneousMatcher, RendezvousMatcher) — by probing one instance from the
// factory and rebuilding fresh instances of the same stock type per worker
// lane; the user factory is called exactly once per eligibility check (never
// concurrently), and a factory that (incorrectly) shares one instance still
// batches safely. A matcher of any other type is an arbitrary implementation
// with per-engine scratch state the lanes cannot model, so it stays scalar
// with a reason naming the type. A nil cfg factory selects the batch
// engine's default pairing (nil factory, nil probe returned).
func batchMatcherFactory(cfg RunConfig) (factory func() sim.Matcher, probe sim.Matcher, ok bool, reason string) {
	if cfg.NewMatcher == nil {
		return nil, nil, true, ""
	}
	probe = cfg.NewMatcher()
	switch probe.(type) {
	case *sim.AlgorithmOneMatcher:
		return func() sim.Matcher { return &sim.AlgorithmOneMatcher{} }, probe, true, ""
	case *sim.SimultaneousMatcher:
		return func() sim.Matcher { return &sim.SimultaneousMatcher{} }, probe, true, ""
	case *sim.RendezvousMatcher:
		return func() sim.Matcher { return &sim.RendezvousMatcher{} }, probe, true, ""
	case nil:
		return nil, nil, false, "cfg.NewMatcher returned nil"
	}
	return nil, nil, false, fmt.Sprintf(
		"cfg.NewMatcher supplies custom matcher %q (only the stock models — algorithm1 with its carry-aware transport form, simultaneous, rendezvous — are batch-compiled)",
		probe.Name())
}

// CompileForBatch reports whether algo + cfg can run on the batch engine and
// returns the compiled program if so. It is the one engine choice: the
// facade and the experiment measurements run the batch engine exactly when
// it accepts. Eligibility requires a compilable algorithm and a
// configuration with none of the scalar-only features: non-stock matchers
// hold per-engine state the batch lanes do not model, and agent wrappers are
// scalar-only too, with one exception: a cfg.Wrap implementing
// BatchFaultWrapper (faults.Spec) lowers to the batch engine's native fault
// lanes and compiles, its sim.FaultSpec attached to the program's
// parameters. Configurations selecting a stock matcher model (Algorithm 1 or
// the simultaneous/rendezvous ablations) compile: the batch engine runs
// those models with exactly their scalar draw sequences. cfg.Trace does not
// affect eligibility; RunBatch records it through a sim.TraceObserver.
//
// When compilation is declined, the returned reason names the cfg field or
// algorithm that blocked it — one log line answers "why is this sweep on the
// slow path". The reason is empty exactly when ok is true.
func CompileForBatch(algo Algorithm, cfg RunConfig) (prog sim.Program, ok bool, reason string) {
	prog, _, ok, reason = compileForBatch(algo, cfg)
	return prog, ok, reason
}

// compileForBatch is CompileForBatch plus the resolved matcher factory, so
// RunBatch performs the whole eligibility check — cfg.NewMatcher probe
// included — exactly once.
func compileForBatch(algo Algorithm, cfg RunConfig) (prog sim.Program, matcher func() sim.Matcher, ok bool, reason string) {
	switch {
	case algo == nil:
		return sim.Program{}, nil, false, "no algorithm"
	case cfg.N <= 0:
		return sim.Program{}, nil, false, fmt.Sprintf("colony size %d is not positive", cfg.N)
	case cfg.Env.K() == 0:
		return sim.Program{}, nil, false, "empty environment"
	}
	var faultSpec sim.FaultSpec
	if cfg.Wrap != nil {
		fw, isFaults := cfg.Wrap.(BatchFaultWrapper)
		if !isFaults {
			return sim.Program{}, nil, false, ReasonWrapperScalarOnly
		}
		spec, enabled := fw.BatchFaults()
		if err := spec.Validate(); err != nil {
			return sim.Program{}, nil, false, fmt.Sprintf("cfg.Wrap fault spec is invalid: %v", err)
		}
		if enabled {
			faultSpec = spec
		}
		// A disabled spec wraps as the identity: compile fault-free.
	}
	factory, probe, matcherOK, reason := batchMatcherFactory(cfg)
	if !matcherOK {
		return sim.Program{}, nil, false, reason
	}
	bc, isCompilable := algo.(BatchCompilable)
	if !isCompilable {
		return sim.Program{}, nil, false, fmt.Sprintf("algorithm %q does not implement core.BatchCompilable", algo.Name())
	}
	prog, ok = bc.CompileBatch(cfg.N, cfg.Env)
	if !ok {
		return sim.Program{}, nil, false, fmt.Sprintf("algorithm %q declined to compile for n=%d, k=%d", algo.Name(), cfg.N, cfg.Env.K())
	}
	if faultSpec.Enabled() {
		// The batch engine appends four synthetic fault states to the
		// program's table; a program that leaves no room stays scalar.
		if len(prog.States) > 252 {
			return sim.Program{}, nil, false, fmt.Sprintf(
				"algorithm %q compiles to %d states, too many for the fault lanes (max 252)",
				algo.Name(), len(prog.States))
		}
		prog.Params.Faults = faultSpec
	}
	if probe != nil && prog.UsesCarry() && prog.Params.QuorumCarry > 1 {
		if _, carries := probe.(sim.CarryMatcher); !carries {
			// The scalar engine rejects a transporting round at runtime for
			// such matchers; declining compilation here routes the config to
			// the scalar path so the user sees that engine's error.
			return sim.Program{}, nil, false, fmt.Sprintf(
				"algorithm %q transports (carry %d > 1) but matcher %q implements no sim.CarryMatcher",
				algo.Name(), prog.Params.QuorumCarry, probe.Name())
		}
	}
	return prog, factory, true, ""
}

// RunBatch executes one replicate per seed on the batch engine and returns
// results equal to what Run would produce for the same (algo, cfg, seed)
// triples — same winners, same round counts, same censuses, and with
// cfg.Trace set (which needs exactly one seed) the same trace rows. The
// boolean reports eligibility: when false, the caller must run the scalar
// path (cfg cannot run batched); no work has been done in that case.
func RunBatch(algo Algorithm, cfg RunConfig, seeds []uint64) ([]Result, bool, error) {
	return RunBatchObserved(algo, cfg, seeds, nil)
}

// RunBatchObserved is RunBatch with a streaming telemetry observer attached
// to the batch engine. Observation is draw-free, so the results are
// bit-identical to RunBatch's. A nil observer is exactly RunBatch. cfg.Trace
// is served by an observer of its own (sim.TraceObserver), so a traced run
// takes a nil obs and exactly one seed; anything else is an error, as is a
// trace built for another nest count.
func RunBatchObserved(algo Algorithm, cfg RunConfig, seeds []uint64, obs sim.BatchObserver) ([]Result, bool, error) {
	prog, factory, ok, _ := compileForBatch(algo, cfg)
	if !ok {
		return nil, false, nil
	}
	if len(seeds) == 0 {
		return nil, true, fmt.Errorf("core: batch run needs at least one seed")
	}
	if cfg.Trace != nil {
		switch {
		case len(seeds) != 1:
			return nil, true, fmt.Errorf("core: cfg.Trace records one replicate, got %d seeds", len(seeds))
		case obs != nil:
			return nil, true, fmt.Errorf("core: cfg.Trace and an observer cannot share a batch run")
		}
		if err := checkTrace(cfg); err != nil {
			return nil, true, err
		}
		to, err := sim.NewTraceObserver(cfg.Trace, cfg.Env.K())
		if err != nil {
			return nil, true, fmt.Errorf("core: %w", err)
		}
		obs = to
	}
	var opts []sim.BatchOption
	if factory != nil {
		opts = append(opts, sim.WithBatchMatcher(factory))
	}
	if obs != nil {
		opts = append(opts, sim.WithBatchObserver(obs))
	}
	if cfg.BatchWorkers > 0 {
		opts = append(opts, sim.WithBatchWorkers(cfg.BatchWorkers))
	}
	if cfg.BatchShards > 0 {
		opts = append(opts, sim.WithBatchShards(cfg.BatchShards))
	}
	batch, err := sim.NewBatch(cfg.Env, prog, cfg.N, opts...)
	if err != nil {
		return nil, true, fmt.Errorf("core: constructing batch engine: %w", err)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = defaultMaxRounds(cfg.N, cfg.Env.K())
	}
	window := cfg.StabilityWindow
	if window <= 0 {
		window = 1
	}
	raw, err := batch.Run(seeds, maxRounds, window)
	if err != nil {
		return nil, true, fmt.Errorf("core: running %s batched: %w", algo.Name(), err)
	}
	results := make([]Result, len(raw))
	for i, r := range raw {
		results[i] = Result{
			Solved:        r.Solved,
			Winner:        r.Winner,
			WinnerQuality: r.WinnerQuality,
			Rounds:        r.Rounds,
			FinalCensus: Census{
				Committed: r.Committed,
				// Deciding programs (Final-flagged states, Algorithm 2)
				// report the decided count like TakeCensus would; others
				// expose commitment only (-1).
				Decided: r.Decided,
				// Faulty ants (Byzantine plus fired crashes) are excluded
				// from Total, mirroring TakeCensus over wrapped agents.
				Faulty: r.Faulty,
				Total:  cfg.N - r.Faulty,
			},
			Algorithm: algo.Name(),
		}
	}
	return results, true, nil
}
