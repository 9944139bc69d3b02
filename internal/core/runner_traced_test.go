package core

import (
	"strings"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/trace"
)

// trespasserAnt violates the §2 go precondition on purpose: it heads for
// nest 1 without ever having visited it. Under strict validation the engine
// must reject the run; with strict disabled it commits immediately.
type trespasserAnt struct{}

func (trespasserAnt) Act(int) sim.Action            { return sim.Goto(1) }
func (trespasserAnt) Observe(int, sim.Outcome)      {}
func (trespasserAnt) Committed() (sim.NestID, bool) { return 1, true }

type trespasserAlgorithm struct{}

func (trespasserAlgorithm) Name() string { return "trespasser" }

func (trespasserAlgorithm) Build(n int, _ sim.Environment, _ *rng.Source) ([]sim.Agent, error) {
	agents := make([]sim.Agent, n)
	for i := range agents {
		agents[i] = trespasserAnt{}
	}
	return agents, nil
}

// TestRunTracedRejectsSizeChangingWrapper is the regression test for the
// missing post-Wrap size check: a wrapper that shrinks the colony must fail
// a traced run with a clean error, exactly as an untraced one, not corrupt
// downstream indexing.
func TestRunTracedRejectsSizeChangingWrapper(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	shrink := WrapFunc(func(a []sim.Agent) ([]sim.Agent, error) { return a[:len(a)-1], nil })

	tr := trace.New(1)
	_, err := Run(oracleAlgorithm{}, RunConfig{N: 8, Env: env, Trace: tr, Wrap: shrink})
	if err == nil || !strings.Contains(err.Error(), "changed colony size") {
		t.Fatalf("traced Run accepted a size-changing wrapper: %v", err)
	}

	// The untraced run must agree.
	_, err = Run(oracleAlgorithm{}, RunConfig{N: 8, Env: env, Wrap: shrink})
	if err == nil || !strings.Contains(err.Error(), "changed colony size") {
		t.Fatalf("Run accepted a size-changing wrapper: %v", err)
	}
}

// TestRunTracedStrictPropagation is the regression test for a dropped
// cfg.Strict: traced runs must honour a disabled strict mode (the protocol
// violation goes unpunished) and enforce it when left at the default.
func TestRunTracedStrictPropagation(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})

	// Default (strict on): the unvisited go must poison the run.
	tr := trace.New(1)
	_, err := Run(trespasserAlgorithm{}, RunConfig{N: 4, Env: env, Trace: tr})
	if err == nil || !strings.Contains(err.Error(), "never visited") {
		t.Fatalf("strict traced run accepted a protocol violation: %v", err)
	}

	// Strict disabled: the same colony commits to nest 1 on round one.
	off := false
	tr2 := trace.New(1)
	res, err := Run(trespasserAlgorithm{}, RunConfig{N: 4, Env: env, Trace: tr2, Strict: &off})
	if err != nil {
		t.Fatalf("non-strict traced run failed: %v", err)
	}
	if !res.Solved || res.Winner != 1 || res.Rounds != 1 {
		t.Fatalf("non-strict traced run did not converge immediately: %+v", res)
	}
	if tr2.Len() != 1 {
		t.Fatalf("trace recorded %d rounds, want 1", tr2.Len())
	}

	// The untraced run must agree on both paths.
	if _, err := Run(trespasserAlgorithm{}, RunConfig{N: 4, Env: env}); err == nil {
		t.Fatal("strict Run accepted a protocol violation")
	}
	res, err = Run(trespasserAlgorithm{}, RunConfig{N: 4, Env: env, Strict: &off})
	if err != nil || !res.Solved {
		t.Fatalf("non-strict Run: %v %+v", err, res)
	}
}
