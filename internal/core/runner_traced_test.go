package core

import (
	"strings"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/trace"
)

// trespasserAnt violates the §2 go precondition on purpose: it heads for
// nest 1 without ever having visited it, which the engine must reject.
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

// TestRunTracedStrictPropagation pins §2 validation on traced runs: the
// scalar engine always validates, so an unvisited go must fail a traced run
// exactly as it fails an untraced one.
func TestRunTracedStrictPropagation(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})

	tr := trace.New(1)
	_, err := Run(trespasserAlgorithm{}, RunConfig{N: 4, Env: env, Trace: tr})
	if err == nil || !strings.Contains(err.Error(), "never visited") {
		t.Fatalf("traced run accepted a protocol violation: %v", err)
	}

	// The untraced run must agree.
	if _, err := Run(trespasserAlgorithm{}, RunConfig{N: 4, Env: env}); err == nil || !strings.Contains(err.Error(), "never visited") {
		t.Fatalf("Run accepted a protocol violation: %v", err)
	}
}
