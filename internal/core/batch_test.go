package core

import (
	"strings"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/trace"
)

// compilableOracle is a minimal BatchCompilable: it exposes a trivial
// lockstep program so CompileForBatch's cfg gating can be probed without
// depending on the algo package (core must not import it).
type compilableOracle struct{ decline bool }

func (compilableOracle) Name() string { return "oracle" }

func (compilableOracle) Build(n int, env sim.Environment, src *rng.Source) ([]sim.Agent, error) {
	return nil, nil
}

func (c compilableOracle) CompileBatch(n int, env sim.Environment) (sim.Program, bool) {
	if c.decline {
		return sim.Program{}, false
	}
	return sim.Program{
		Algorithm: "oracle",
		States: []sim.ProgramState{
			{Emit: sim.EmitSearch, Observe: sim.ObserveDiscovery, Next: 0},
		},
	}, true
}

// TestCompileForBatchReasons pins the fallback diagnostics: every scalar-only
// cfg field and every algorithm-side refusal must name itself in the returned
// reason, and an eligible pair, traced or not, must return an empty reason —
// the "why is this sweep slow" contract.
func TestCompileForBatchReasons(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0})
	base := RunConfig{N: 16, Env: env}
	cases := []struct {
		name string
		algo Algorithm
		cfg  RunConfig
		want string
	}{
		{"nil algorithm", nil, base, "no algorithm"},
		{"bad colony", compilableOracle{}, RunConfig{N: 0, Env: env}, "colony size"},
		{"empty environment", compilableOracle{}, RunConfig{N: 8}, "empty environment"},
		{"wrap", compilableOracle{}, func() RunConfig {
			c := base
			c.Wrap = WrapFunc(func(a []sim.Agent) ([]sim.Agent, error) { return a, nil })
			return c
		}(), "cfg.Wrap"},
		{"matcher", compilableOracle{}, func() RunConfig {
			c := base
			c.NewMatcher = func() sim.Matcher { return customMatcher{} }
			return c
		}(), "custom matcher"},
		{"nil matcher", compilableOracle{}, func() RunConfig {
			c := base
			c.NewMatcher = func() sim.Matcher { return nil }
			return c
		}(), "cfg.NewMatcher returned nil"},
		{"not compilable", stubAlgorithm{}, base, "does not implement core.BatchCompilable"},
		{"declined", compilableOracle{decline: true}, base, "declined to compile"},
	}
	for _, tc := range cases {
		_, ok, reason := CompileForBatch(tc.algo, tc.cfg)
		if ok {
			t.Errorf("%s: unexpectedly batch-eligible", tc.name)
			continue
		}
		if !strings.Contains(reason, tc.want) {
			t.Errorf("%s: reason %q does not mention %q", tc.name, reason, tc.want)
		}
	}
	if _, ok, reason := CompileForBatch(compilableOracle{}, base); !ok || reason != "" {
		t.Errorf("eligible pair: ok=%v reason=%q, want true and empty", ok, reason)
	}
	traced := base
	traced.Trace = trace.New(2)
	if _, ok, reason := CompileForBatch(compilableOracle{}, traced); !ok || reason != "" {
		t.Errorf("traced pair: ok=%v reason=%q, want true and empty", ok, reason)
	}

	// Every stock matcher model compiles: the batch engine runs the default
	// Algorithm 1 pairing (with its carry-aware transport form) and the
	// simultaneous/rendezvous ablations with their scalar draw sequences, so
	// cfg.NewMatcher only forces the scalar path for genuinely custom
	// implementations.
	for _, stock := range sim.Matchers() {
		stock := stock
		name := stock.Name()
		matcherCfg := base
		matcherCfg.NewMatcher = func() sim.Matcher { return stock }
		if _, ok, reason := CompileForBatch(compilableOracle{}, matcherCfg); !ok || reason != "" {
			t.Errorf("stock matcher %s: ok=%v reason=%q, want batch-eligible with empty reason", name, ok, reason)
		}
	}

	// The custom-matcher reason must name the offending type and the stock
	// models that do compile, so "why is this sweep slow" has a one-line
	// answer that does not imply batched matching is missing entirely.
	matcherCfg := base
	matcherCfg.NewMatcher = func() sim.Matcher { return customMatcher{} }
	if _, _, reason := CompileForBatch(compilableOracle{}, matcherCfg); !strings.Contains(reason, "custom-test") ||
		!strings.Contains(reason, "algorithm1") || !strings.Contains(reason, "carry-aware") ||
		!strings.Contains(reason, "simultaneous") || !strings.Contains(reason, "rendezvous") {
		t.Errorf("matcher reason %q does not name the custom type and the stock batch-compiled models", reason)
	}
}

// TestRunTraceErrors pins cfg.Trace's misuse errors on each engine. The batch
// engine records a trace through one sim.TraceObserver, which keeps one
// replicate, so a traced batch run with two seeds or with an observer of its
// own fails; a trace built for another nest count fails on either engine. No
// failing run records a row, and the same traced config with one seed runs.
func TestRunTraceErrors(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0})
	obs, err := sim.NewTraceObserver(trace.New(2), 2)
	if err != nil {
		t.Fatal(err)
	}
	batch := func(seeds []uint64, obs sim.BatchObserver) func(RunConfig) error {
		return func(cfg RunConfig) error {
			_, ok, err := RunBatchObserved(compilableOracle{}, cfg, seeds, obs)
			if !ok {
				t.Fatalf("traced config declined")
			}
			return err
		}
	}
	wrongK := "core: cfg.Trace built for 3 nests, environment has 2"
	for _, tc := range []struct {
		name string
		k    int
		run  func(RunConfig) error
		want string
	}{
		{"batch/two seeds", 2, batch([]uint64{1, 2}, nil), "core: cfg.Trace records one replicate, got 2 seeds"},
		{"batch/observer", 2, batch([]uint64{1}, obs), "core: cfg.Trace and an observer cannot share a batch run"},
		{"batch/wrong k", 3, batch([]uint64{1}, nil), wrongK},
		{"scalar/wrong k", 3, func(cfg RunConfig) error {
			_, err := Run(oracleAlgorithm{}, cfg)
			return err
		}, wrongK},
	} {
		cfg := RunConfig{N: 16, Env: env, MaxRounds: 4, Trace: trace.New(tc.k)}
		if err := tc.run(cfg); err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		if cfg.Trace.Len() != 0 {
			t.Errorf("%s: failed run recorded %d rows", tc.name, cfg.Trace.Len())
		}
	}
	cfg := RunConfig{N: 16, Env: env, MaxRounds: 4, Trace: trace.New(2)}
	res, ok, err := RunBatch(compilableOracle{}, cfg, []uint64{1})
	if err != nil || !ok || cfg.Trace.Len() != res[0].Rounds {
		t.Fatalf("one-seed traced run: ok=%v err=%v, %d rows for %+v", ok, err, cfg.Trace.Len(), res)
	}
}

// customMatcher is a non-stock Matcher implementation: configs supplying it
// must stay on the scalar path.
type customMatcher struct{}

func (customMatcher) Name() string { return "custom-test" }

func (customMatcher) Match(n int, active []bool, src *rng.Source, capturedBy []int32, succeeded []bool) {
	for t := 0; t < n; t++ {
		capturedBy[t] = -1
		succeeded[t] = false
	}
}

// transportProgram is a minimal carry-using program: CompileForBatch must
// decline it for stock matchers without carry support (simultaneous and
// rendezvous implement no CarryMatcher), because the scalar engine would
// reject the transporting round at runtime.
type transportOracle struct{}

func (transportOracle) Name() string { return "transport-oracle" }

func (transportOracle) Build(n int, env sim.Environment, src *rng.Source) ([]sim.Agent, error) {
	return nil, nil
}

func (transportOracle) CompileBatch(n int, env sim.Environment) (sim.Program, bool) {
	return sim.Program{
		Algorithm: "transport-oracle",
		States: []sim.ProgramState{
			{Emit: sim.EmitRecruitTransport, Observe: sim.ObserveNone, Next: 0},
		},
		Params: sim.ProgramParams{QuorumCarry: 3},
	}, true
}

// TestCompileForBatchTransportNeedsCarryMatcher pins the carry gating: a
// transporting program batches with the default pairing but declines for
// stock matchers lacking MatchCarry, naming the matcher in the reason.
func TestCompileForBatchTransportNeedsCarryMatcher(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0})
	base := RunConfig{N: 16, Env: env}
	if _, ok, reason := CompileForBatch(transportOracle{}, base); !ok || reason != "" {
		t.Fatalf("transport program with default pairing: ok=%v reason=%q, want eligible", ok, reason)
	}
	withA1 := base
	withA1.NewMatcher = func() sim.Matcher { return &sim.AlgorithmOneMatcher{} }
	if _, ok, reason := CompileForBatch(transportOracle{}, withA1); !ok || reason != "" {
		t.Fatalf("transport program with explicit algorithm1: ok=%v reason=%q, want eligible", ok, reason)
	}
	for _, factory := range []func() sim.Matcher{
		func() sim.Matcher { return &sim.SimultaneousMatcher{} },
		func() sim.Matcher { return &sim.RendezvousMatcher{} },
	} {
		cfg := base
		cfg.NewMatcher = factory
		name := factory().Name()
		_, ok, reason := CompileForBatch(transportOracle{}, cfg)
		if ok {
			t.Errorf("%s: transporting program should not batch without carry support", name)
			continue
		}
		if !strings.Contains(reason, name) || !strings.Contains(reason, "CarryMatcher") {
			t.Errorf("%s: reason %q does not name the matcher and the missing carry support", name, reason)
		}
	}
}

// stubAlgorithm is an Algorithm without a compiled form.
type stubAlgorithm struct{}

func (stubAlgorithm) Name() string { return "stub" }

func (stubAlgorithm) Build(n int, env sim.Environment, src *rng.Source) ([]sim.Agent, error) {
	return nil, nil
}
