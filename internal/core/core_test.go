package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/trace"
)

// oracleAnt is a deliberately simple test colony member: it searches every
// round until it personally stumbles on the target nest, then commits and
// revisits it forever. Convergence therefore needs every ant to find the
// target by independent search — a coupon-collector process that terminates
// quickly for small test colonies.
type oracleAnt struct {
	target    sim.NestID
	committed bool
	done      bool
}

func (o *oracleAnt) Act(round int) sim.Action {
	if o.committed {
		return sim.Goto(o.target)
	}
	return sim.Search()
}

func (o *oracleAnt) Observe(_ int, out sim.Outcome) {
	if !o.committed && out.Nest == o.target {
		o.committed = true
		o.done = true
	}
}

func (o *oracleAnt) Committed() (sim.NestID, bool) {
	if !o.committed {
		return sim.Home, false
	}
	return o.target, true
}

func (o *oracleAnt) Decided() bool { return o.done }

// oracleAlgorithm builds oracleAnts homing on the first good nest.
type oracleAlgorithm struct{}

func (oracleAlgorithm) Name() string { return "oracle" }

func (oracleAlgorithm) Build(n int, env sim.Environment, _ *rng.Source) ([]sim.Agent, error) {
	good := env.GoodNests()
	if len(good) == 0 {
		return nil, errors.New("no good nest")
	}
	agents := make([]sim.Agent, n)
	for i := range agents {
		agents[i] = &oracleAnt{target: good[0]}
	}
	return agents, nil
}

// stubCommitter is a census test double.
type stubCommitter struct {
	nest    sim.NestID
	ok      bool
	faulty  bool
	decided bool
}

func (s *stubCommitter) Act(int) sim.Action       { return sim.Search() }
func (s *stubCommitter) Observe(int, sim.Outcome) {}
func (s *stubCommitter) Committed() (sim.NestID, bool) {
	return s.nest, s.ok
}
func (s *stubCommitter) Faulty() bool { return s.faulty }

// decidedStub adds the Decided interface on top of stubCommitter.
type decidedStub struct{ stubCommitter }

func (d *decidedStub) Decided() bool { return d.decided }

func TestTakeCensus(t *testing.T) {
	t.Parallel()
	agents := []sim.Agent{
		&stubCommitter{nest: 1, ok: true},
		&stubCommitter{nest: 1, ok: true},
		&stubCommitter{nest: 2, ok: true},
		&stubCommitter{ok: false},
		&stubCommitter{nest: 1, ok: true, faulty: true},
	}
	c := TakeCensus(agents, 3)
	if c.Total != 4 || c.Faulty != 1 {
		t.Fatalf("census totals: %+v", c)
	}
	if c.Committed[0] != 1 || c.Committed[1] != 2 || c.Committed[2] != 1 || c.Committed[3] != 0 {
		t.Fatalf("census commitments: %v", c.Committed)
	}
	if c.Decided != -1 {
		t.Fatalf("no decider agents but Decided = %d", c.Decided)
	}
	if _, ok := c.Winner(); ok {
		t.Fatal("split census reported a winner")
	}
}

func TestTakeCensusOutOfRangeCommitment(t *testing.T) {
	t.Parallel()
	agents := []sim.Agent{&stubCommitter{nest: 99, ok: true}}
	c := TakeCensus(agents, 3)
	if c.Committed[0] != 1 {
		t.Fatalf("out-of-range commitment should count as uncommitted: %v", c.Committed)
	}
}

func TestCensusWinnerAndConverged(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{0, 1})
	unanimousGood := []sim.Agent{
		&stubCommitter{nest: 2, ok: true},
		&stubCommitter{nest: 2, ok: true},
	}
	c := TakeCensus(unanimousGood, 2)
	if w, ok := c.Winner(); !ok || w != 2 {
		t.Fatalf("Winner = %v %v", w, ok)
	}
	if w, ok := c.Converged(env); !ok || w != 2 {
		t.Fatalf("Converged = %v %v", w, ok)
	}
	// Unanimity on a BAD nest must not count as solving the problem.
	unanimousBad := []sim.Agent{&stubCommitter{nest: 1, ok: true}}
	c = TakeCensus(unanimousBad, 2)
	if _, ok := c.Converged(env); ok {
		t.Fatal("converged on a bad nest")
	}
}

func TestCensusDecidedGate(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	half := &decidedStub{stubCommitter{nest: 1, ok: true}}
	full := &decidedStub{stubCommitter{nest: 1, ok: true}}
	full.decided = true
	c := TakeCensus([]sim.Agent{half, full}, 1)
	if c.Decided != 1 {
		t.Fatalf("Decided = %d, want 1", c.Decided)
	}
	if _, ok := c.Converged(env); ok {
		t.Fatal("converged with undecided ants")
	}
	half.decided = true
	c = TakeCensus([]sim.Agent{half, full}, 1)
	if _, ok := c.Converged(env); !ok {
		t.Fatal("did not converge with all decided")
	}
}

func TestCensusEmptyColony(t *testing.T) {
	t.Parallel()
	c := TakeCensus(nil, 2)
	if _, ok := c.Winner(); ok {
		t.Fatal("empty colony has a winner")
	}
}

func TestRunOracleConverges(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{0, 1, 0})
	res, err := Run(oracleAlgorithm{}, RunConfig{N: 40, Env: env, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("oracle did not converge: %+v", res)
	}
	if res.Winner != 2 || res.WinnerQuality != 1 {
		t.Fatalf("winner = %d (q=%v), want nest 2", res.Winner, res.WinnerQuality)
	}
	if res.Rounds <= 0 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
	if res.Algorithm != "oracle" {
		t.Fatalf("algorithm name = %q", res.Algorithm)
	}
	if got := res.FinalCensus.Committed[2]; got != 40 {
		t.Fatalf("final census = %v", res.FinalCensus.Committed)
	}
}

func TestRunStabilityWindow(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	base, err := Run(oracleAlgorithm{}, RunConfig{N: 20, Env: env, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := Run(oracleAlgorithm{}, RunConfig{N: 20, Env: env, Seed: 7, StabilityWindow: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !windowed.Solved {
		t.Fatal("windowed run did not converge")
	}
	if windowed.Rounds != base.Rounds+4 {
		t.Fatalf("window of 5 should add 4 rounds: base %d, windowed %d", base.Rounds, windowed.Rounds)
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0, 0, 0, 0, 0, 0, 0})
	// One round cannot possibly converge a 30-ant oracle colony on k=8.
	res, err := Run(oracleAlgorithm{}, RunConfig{N: 30, Env: env, Seed: 1, MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved {
		t.Fatal("impossible convergence reported")
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
}

func TestRunValidation(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	if _, err := Run(nil, RunConfig{N: 1, Env: env}); err == nil {
		t.Fatal("nil algorithm accepted")
	}
	if _, err := Run(oracleAlgorithm{}, RunConfig{N: 0, Env: env}); err == nil {
		t.Fatal("zero colony accepted")
	}
	if _, err := Run(oracleAlgorithm{}, RunConfig{N: 5}); err == nil {
		t.Fatal("empty environment accepted")
	}
}

func TestRunDeterministicAcrossSeeds(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{0, 1})
	a, err := Run(oracleAlgorithm{}, RunConfig{N: 25, Env: env, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(oracleAlgorithm{}, RunConfig{N: 25, Env: env, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Winner != b.Winner {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestRunWithFaultyExclusion(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	wrap := WrapFunc(func(agents []sim.Agent) ([]sim.Agent, error) {
		// Replace the last ant with a permanently faulty stub: it never
		// commits, but being faulty it must not block convergence.
		agents[len(agents)-1] = &stubCommitter{faulty: true}
		return agents, nil
	})
	res, err := Run(oracleAlgorithm{}, RunConfig{N: 10, Env: env, Seed: 3, Wrap: wrap})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("faulty ant blocked convergence")
	}
	if res.FinalCensus.Faulty != 1 || res.FinalCensus.Total != 9 {
		t.Fatalf("census = %+v", res.FinalCensus)
	}
}

func TestRunWrapErrors(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	boom := WrapFunc(func([]sim.Agent) ([]sim.Agent, error) { return nil, errors.New("boom") })
	if _, err := Run(oracleAlgorithm{}, RunConfig{N: 4, Env: env, Wrap: boom}); err == nil {
		t.Fatal("wrapper error swallowed")
	}
	shrink := WrapFunc(func(a []sim.Agent) ([]sim.Agent, error) { return a[:1], nil })
	if _, err := Run(oracleAlgorithm{}, RunConfig{N: 4, Env: env, Wrap: shrink}); err == nil {
		t.Fatal("colony-size change accepted")
	}
}

// TestRunTraced pins a traced core.Run: one row per executed round, each
// carrying the round's commitment census, and the same result as the
// untraced run.
func TestRunTraced(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{0, 1})
	tr := trace.New(2)
	res, err := Run(oracleAlgorithm{}, RunConfig{N: 20, Env: env, Seed: 8, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("traced run did not converge")
	}
	if tr.Len() != res.Rounds {
		t.Fatalf("trace has %d rounds, result says %d", tr.Len(), res.Rounds)
	}
	// The last census must show all 20 ants committed to nest 2.
	last := tr.Rounds()[tr.Len()-1]
	if last.Commitments == nil || last.Commitments[2] != 20 {
		t.Fatalf("final trace census = %v", last.Commitments)
	}
	for i, rec := range tr.Rounds() {
		if rec.Round != i+1 {
			t.Fatalf("trace row %d is round %d", i, rec.Round)
		}
	}
	untraced, err := Run(oracleAlgorithm{}, RunConfig{N: 20, Env: env, Seed: 8})
	if err != nil || !reflect.DeepEqual(untraced, res) {
		t.Fatalf("untraced run %+v (%v) differs from traced run %+v", untraced, err, res)
	}
}

func TestLocationConverged(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{0, 1})
	algoAgents, err := oracleAlgorithm{}.Build(15, env, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(env, algoAgents, sim.WithSeed(31))
	if err != nil {
		t.Fatal(err)
	}
	// Run until every oracle ant has committed and is physically at nest 2.
	for r := 0; r < 500; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if w, ok := LocationConverged(e, algoAgents); ok {
			if w != 2 {
				t.Fatalf("location winner %d, want 2", w)
			}
			return
		}
	}
	t.Fatal("location convergence never reached")
}

// failingAlgorithm always fails to build, to exercise the build-error paths.
type failingAlgorithm struct{}

func (failingAlgorithm) Name() string { return "failing" }
func (failingAlgorithm) Build(int, sim.Environment, *rng.Source) ([]sim.Agent, error) {
	return nil, errors.New("synthetic build failure")
}

func TestRunWrapsBuildErrors(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	_, err := Run(failingAlgorithm{}, RunConfig{N: 4, Env: env})
	if err == nil || !strings.Contains(err.Error(), "failing") {
		t.Fatalf("build error not wrapped with algorithm name: %v", err)
	}
	tr := trace.New(1)
	_, err = Run(failingAlgorithm{}, RunConfig{N: 4, Env: env, Trace: tr})
	if err == nil || !strings.Contains(err.Error(), "failing") {
		t.Fatalf("traced Run build error not wrapped: %v", err)
	}
}

func TestRunTracedValidationAndWrap(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	tr := trace.New(1)
	if _, err := Run(nil, RunConfig{N: 4, Env: env, Trace: tr}); err == nil {
		t.Fatal("nil algorithm accepted")
	}
	if _, err := Run(oracleAlgorithm{}, RunConfig{N: 0, Env: env, Trace: tr}); err == nil {
		t.Fatal("zero colony accepted")
	}
	boom := WrapFunc(func([]sim.Agent) ([]sim.Agent, error) { return nil, errors.New("boom") })
	if _, err := Run(oracleAlgorithm{}, RunConfig{N: 4, Env: env, Trace: tr, Wrap: boom}); err == nil {
		t.Fatal("wrap error swallowed in a traced Run")
	}
	if tr.Len() != 0 {
		t.Fatalf("failed runs recorded %d trace rows", tr.Len())
	}
	// A successful wrapped, matcher-overridden traced run.
	tr2 := trace.New(1)
	passthrough := WrapFunc(func(a []sim.Agent) ([]sim.Agent, error) { return a, nil })
	res, err := Run(oracleAlgorithm{}, RunConfig{
		N: 10, Env: env, Trace: tr2, Seed: 4, Wrap: passthrough,
		NewMatcher: func() sim.Matcher { return &sim.SimultaneousMatcher{} },
	})
	if err != nil || !res.Solved {
		t.Fatalf("wrapped traced run: %v %+v", err, res)
	}
}

func TestRunTracedBudgetExhaustion(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0, 0, 0, 0, 0, 0, 0})
	tr := trace.New(8)
	res, err := Run(oracleAlgorithm{}, RunConfig{N: 30, Env: env, Seed: 1, MaxRounds: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Solved || res.Rounds != 1 || tr.Len() != 1 {
		t.Fatalf("budgeted traced run: %+v, trace %d rounds", res, tr.Len())
	}
}

func TestLocationConvergedEdgeCases(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{0, 1})
	agents, err := oracleAlgorithm{}.Build(5, env, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(env, agents, sim.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	// Before any round everyone is at home: not converged.
	if _, ok := LocationConverged(e, agents); ok {
		t.Fatal("converged while everyone is at home")
	}
	// Mismatched agents slice: refuse.
	if _, ok := LocationConverged(e, agents[:2]); ok {
		t.Fatal("converged with mismatched agent slice")
	}
	// One step: ants scattered over nests 1 and 2: not converged (and nest 1
	// is bad even if unanimous).
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if _, ok := LocationConverged(e, agents); ok {
		t.Fatal("converged while scattered")
	}
}

func TestRunTracedStabilityWindow(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	tr := trace.New(1)
	res, err := Run(oracleAlgorithm{}, RunConfig{
		N: 12, Env: env, Seed: 9, Trace: tr, StabilityWindow: 4,
	})
	if err != nil || !res.Solved {
		t.Fatalf("windowed traced run: %v %+v", err, res)
	}
	if tr.Len() != res.Rounds {
		t.Fatalf("trace %d rounds vs result %d", tr.Len(), res.Rounds)
	}
}
