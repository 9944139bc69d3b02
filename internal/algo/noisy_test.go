package algo

import (
	"testing"

	"github.com/gmrl/househunt/internal/nest"
	"github.com/gmrl/househunt/internal/sim"
)

// TestNoisyZeroNoiseDegenerate pins the zero-noise corners of the perception
// stack: a RelativeNoiseCounter with σ = 0 must report every count exactly
// (it still consumes a normal draw — the noise term is multiplied away, not
// skipped), a FlipAssessor with p = 0 must return the true quality without
// consuming any randomness (Bernoulli(0) draws nothing), and a Noisy colony
// assembled from both must still solve the instance with a good winner.
func TestNoisyZeroNoiseDegenerate(t *testing.T) {
	t.Parallel()
	src := testSrc(31)
	counter := nest.RelativeNoiseCounter{Sigma: 0}
	for _, c := range []int{0, 1, 7, 100, 1 << 20} {
		if got := counter.Estimate(c, 1024, src); got != c {
			t.Fatalf("σ=0 estimate of %d = %d, want exact", c, got)
		}
	}
	flip := nest.FlipAssessor{P: 0}
	before := src.State()
	for _, q := range []float64{0, 0.25, 0.5, 1} {
		if got := flip.Assess(q, src); got != q {
			t.Fatalf("p=0 flip of %v = %v, want unchanged", q, got)
		}
	}
	if src.State() != before {
		t.Fatal("p=0 flip consumed randomness; the degenerate case must be draw-free")
	}

	env := sim.MustEnvironment([]float64{1, 0, 1, 0})
	a := Noisy{Counter: nest.RelativeNoiseCounter{Sigma: 0}, Assessor: nest.FlipAssessor{P: 0}}
	res := runAlgo(t, a, 128, env, 5, 0)
	if !res.Solved || !env.Good(res.Winner) {
		t.Fatalf("zero-noise colony failed: %+v", res)
	}
}

// TestNoisyThresholdExactBoundary pins the good/bad classification at its
// boundary: a perceived quality exactly equal to the threshold reads as bad
// (the comparison is quality <= threshold), anything above reads as good.
func TestNoisyThresholdExactBoundary(t *testing.T) {
	t.Parallel()
	at, err := NewNoisyAnt(64, testKey(32), 0, nest.ExactCounter{}, nest.ExactAssessor{}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	at.Act(1)
	at.Observe(1, sim.Outcome{Nest: 1, Count: 4, Quality: 0.5})
	if at.active {
		t.Fatal("quality exactly at the threshold classified as good")
	}
	above, err := NewNoisyAnt(64, testKey(33), 0, nest.ExactCounter{}, nest.ExactAssessor{}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	above.Act(1)
	above.Observe(1, sim.Outcome{Nest: 1, Count: 4, Quality: 0.5000001})
	if !above.active {
		t.Fatal("quality just above the threshold classified as bad")
	}
}

// TestNoisyOverestimateClampsProbability pins the recruit probability of an
// overestimate: a noisy count above n puts count/n past 1, and the ant must
// treat it as a sure recruit, whatever its keyed word, rather than emit an
// out-of-range probability.
func TestNoisyOverestimateClampsProbability(t *testing.T) {
	t.Parallel()
	key := testKey(34)
	for id := 0; id < 500; id++ {
		a, err := NewNoisyAnt(8, key, id, nest.ExactCounter{}, nest.ExactAssessor{}, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		a.Act(1)
		// The engine would never report 40 ants in an 8-ant colony, but a
		// noisy counter can: model it by feeding the inflated count through
		// an exact perception path.
		a.Observe(1, sim.Outcome{Nest: 1, Count: 40, Quality: 1})
		if act := a.Act(2); act.Kind != sim.ActionRecruit || !act.Active {
			t.Fatalf("ant %d: overestimating ant act = %+v, want a sure active recruit", id, act)
		}
	}
}

// TestNoisyZeroNoisePerceptionTracksExactCounts runs a full colony whose
// estimator and assessor both carry zero noise and asserts, round for round,
// that every ant's perceived count equals the engine's true end-of-round
// count of the nest it observed: the zero-noise perception stack degenerates
// to exact counting (while still consuming its normal draws, so it is NOT
// stream-identical to ExactCounter — only value-identical).
func TestNoisyZeroNoisePerceptionTracksExactCounts(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0, 1, 0})
	const n, rounds = 64, 120
	a := Noisy{Counter: nest.RelativeNoiseCounter{Sigma: 0}, Assessor: nest.GaussianAssessor{Sigma: 0}}
	agents, err := a.Build(n, env, testSrc(7))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(env, agents, sim.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
		for i, ag := range agents {
			ant := ag.(*NoisyAnt)
			switch eng.ActionTaken(i).Kind {
			case sim.ActionSearch, sim.ActionGo:
				if want := eng.Outcome(i).Count; ant.count != want {
					t.Fatalf("round %d ant %d: perceived count %d != exact count %d",
						r+1, i, ant.count, want)
				}
			}
		}
	}
}
