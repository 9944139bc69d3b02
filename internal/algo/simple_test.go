package algo

import (
	"math"
	"testing"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/sim"
)

// runAlgo is a test helper executing one colony to convergence.
func runAlgo(t *testing.T, a core.Algorithm, n int, env sim.Environment, seed uint64, maxRounds int) core.Result {
	t.Helper()
	res, err := core.Run(a, core.RunConfig{N: n, Env: env, Seed: seed, MaxRounds: maxRounds})
	if err != nil {
		t.Fatalf("%s run failed: %v", a.Name(), err)
	}
	return res
}

func TestSimpleConvergesSmall(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0, 1, 0})
	res := runAlgo(t, Simple{}, 128, env, 1, 0)
	if !res.Solved {
		t.Fatalf("simple did not converge: %+v", res)
	}
	if !env.Good(res.Winner) {
		t.Fatalf("winner %d is a bad nest", res.Winner)
	}
}

func TestSimpleAlwaysPicksGoodNest(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{0, 0, 1, 0, 0, 0, 0, 0})
	for seed := uint64(1); seed <= 20; seed++ {
		res := runAlgo(t, Simple{}, 96, env, seed, 0)
		if !res.Solved {
			t.Fatalf("seed %d: did not converge", seed)
		}
		if res.Winner != 3 {
			t.Fatalf("seed %d: winner %d, want the unique good nest 3", seed, res.Winner)
		}
	}
}

func TestSimpleSingleNest(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	res := runAlgo(t, Simple{}, 64, env, 2, 0)
	if !res.Solved || res.Winner != 1 {
		t.Fatalf("k=1 colony failed: %+v", res)
	}
}

func TestSimpleRoundsGrowWithK(t *testing.T) {
	t.Parallel()
	// Theorem 5.11's O(k log n): average convergence rounds over seeds should
	// clearly increase from k=2 to k=16 at fixed n (all nests good).
	const n = 256
	avg := func(k int) float64 {
		env, err := sim.Uniform(k, k)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		const reps = 6
		for seed := uint64(1); seed <= reps; seed++ {
			res := runAlgo(t, Simple{}, n, env, seed, 0)
			if !res.Solved {
				t.Fatalf("k=%d seed=%d unsolved", k, seed)
			}
			total += res.Rounds
		}
		return float64(total) / reps
	}
	small, large := avg(2), avg(16)
	if large <= small {
		t.Fatalf("rounds did not grow with k: k=2 → %.1f, k=16 → %.1f", small, large)
	}
}

func TestSimpleCommitmentAlwaysVisited(t *testing.T) {
	t.Parallel()
	// Every ant's committed nest must always be one it can legally go(i) to;
	// the engine enforces this — a protocol error would fail the run.
	env := sim.MustEnvironment([]float64{1, 1, 0})
	for seed := uint64(1); seed <= 5; seed++ {
		res := runAlgo(t, Simple{}, 200, env, seed, 0)
		if !res.Solved {
			t.Fatalf("seed %d unsolved", seed)
		}
	}
}

func TestSimpleAntPhaseCycle(t *testing.T) {
	t.Parallel()
	// Unit-level: the ant alternates search → (recruit ↔ assess) regardless of
	// the round numbers passed in.
	a := NewSimpleAnt(10, testKey(1), 0)
	if got := a.Act(1); got.Kind != sim.ActionSearch {
		t.Fatalf("first act = %+v, want search", got)
	}
	a.Observe(1, sim.Outcome{Nest: 2, Count: 3, Quality: 1})
	if got := a.Act(2); got.Kind != sim.ActionRecruit || got.Nest != 2 {
		t.Fatalf("second act = %+v, want recruit(·, 2)", got)
	}
	a.Observe(2, sim.Outcome{Nest: 2, Count: 5})
	if got := a.Act(3); got.Kind != sim.ActionGo || got.Nest != 2 {
		t.Fatalf("third act = %+v, want go(2)", got)
	}
	a.Observe(3, sim.Outcome{Nest: 2, Count: 7})
	if a.Count() != 7 {
		t.Fatalf("count register = %d, want 7", a.Count())
	}
}

func TestSimpleAntPassiveActivation(t *testing.T) {
	t.Parallel()
	a := NewSimpleAnt(10, testKey(2), 0)
	a.Act(1)
	a.Observe(1, sim.Outcome{Nest: 1, Count: 2, Quality: 0}) // bad nest → passive
	if a.Active() {
		t.Fatal("ant active after finding a bad nest")
	}
	act := a.Act(2)
	if act.Kind != sim.ActionRecruit || act.Active {
		t.Fatalf("passive ant act = %+v, want recruit(0, ·)", act)
	}
	// Captured: recruit returns a different nest.
	a.Observe(2, sim.Outcome{Nest: 3, Count: 9, Recruited: true})
	if !a.Active() {
		t.Fatal("captured ant did not re-activate")
	}
	if nest, ok := a.Committed(); !ok || nest != 3 {
		t.Fatalf("captured ant committed to %v %v, want 3", nest, ok)
	}
}

func TestSimpleBuilderValidation(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	if _, err := (Simple{}).Build(0, env, testSrc(1)); err == nil {
		t.Fatal("zero colony accepted")
	}
	if _, err := (Simple{}).Build(5, sim.Environment{}, testSrc(1)); err == nil {
		t.Fatal("empty environment accepted")
	}
	agents, err := (Simple{}).Build(5, env, testSrc(1))
	if err != nil || len(agents) != 5 {
		t.Fatalf("Build: %v, %d agents", err, len(agents))
	}
}

func TestSimpleRecruitProbabilityMatchesCount(t *testing.T) {
	t.Parallel()
	// Statistical unit test of the core §5 rule: an active ant with count c
	// recruits with probability exactly c/n.
	const n, count, trials = 100, 37, 20000
	key := testKey(3)
	active := 0
	for i := 0; i < trials; i++ {
		a := NewSimpleAnt(n, key, i)
		a.Act(1)
		a.Observe(1, sim.Outcome{Nest: 1, Count: count, Quality: 1})
		if act := a.Act(2); act.Active {
			active++
		}
	}
	got := float64(active) / trials
	want := float64(count) / n
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("recruit frequency %v, want %v (count/n)", got, want)
	}
}

func TestSimpleManyBadNests(t *testing.T) {
	t.Parallel()
	// k close to the paper's O(√n/log n) comfort zone with a single good
	// nest: convergence must still land on it.
	env, err := sim.Uniform(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := runAlgo(t, Simple{}, 300, env, 7, 0)
	if !res.Solved || res.Winner != 1 {
		t.Fatalf("unsolved or wrong winner: %+v", res)
	}
}
