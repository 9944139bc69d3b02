package algo

import (
	"math"
	"testing"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/nest"
	"github.com/gmrl/househunt/internal/sim"
)

func TestSpreaderInformsEveryone(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{0, 0, 1, 0})
	for _, n := range []int{32, 256} {
		res := runAlgo(t, Spreader{Seeds: 1}, n, env, 3, 0)
		if !res.Solved {
			t.Fatalf("n=%d: rumor never reached everyone", n)
		}
		if res.Winner != 3 {
			t.Fatalf("n=%d: spread to %d, want the unique good nest 3", n, res.Winner)
		}
	}
}

func TestSpreaderLogarithmicGrowth(t *testing.T) {
	t.Parallel()
	// Theorem 3.2's shape: spreading time should grow roughly additively as n
	// doubles. Compare n=64 and n=4096 (64x): the ratio of rounds must be far
	// below 64 and consistent with a logarithmic law.
	env := sim.MustEnvironment([]float64{1, 0})
	avg := func(n int) float64 {
		const reps = 8
		total := 0
		for seed := uint64(1); seed <= reps; seed++ {
			res := runAlgo(t, Spreader{SearchAll: true}, n, env, seed, 0)
			if !res.Solved {
				t.Fatalf("n=%d seed=%d unsolved", n, seed)
			}
			total += res.Rounds
		}
		return float64(total) / reps
	}
	small, large := avg(64), avg(4096)
	if ratio := large / small; ratio > 4 {
		t.Fatalf("spreading scaled by %.1fx over a 64x colony: not logarithmic (%.1f → %.1f)",
			ratio, small, large)
	}
}

func TestSpreaderNeedsSingleGoodNest(t *testing.T) {
	t.Parallel()
	twoGood := sim.MustEnvironment([]float64{1, 1})
	if _, err := (Spreader{}).Build(10, twoGood, testSrc(1)); err == nil {
		t.Fatal("two good nests accepted for the lower-bound process")
	}
	if _, err := (Spreader{}).Build(0, sim.MustEnvironment([]float64{1}), testSrc(1)); err == nil {
		t.Fatal("zero colony accepted")
	}
}

func TestSpreaderSeedsClamped(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	agents, err := (Spreader{Seeds: 99}).Build(5, env, testSrc(2))
	if err != nil || len(agents) != 5 {
		t.Fatalf("Build with excess seeds: %v, %d agents", err, len(agents))
	}
}

func TestSpreaderAntInformsOnTargetContact(t *testing.T) {
	t.Parallel()
	a := NewSpreaderAnt(2, false)
	if a.Informed() {
		t.Fatal("fresh ant informed")
	}
	if act := a.Act(1); act.Kind != sim.ActionRecruit || act.Active {
		t.Fatalf("ignorant waiter act = %+v", act)
	}
	a.Observe(1, sim.Outcome{Nest: sim.Home}) // not captured
	if a.Informed() {
		t.Fatal("informed without contact")
	}
	a.Observe(2, sim.Outcome{Nest: 2, Recruited: true})
	if !a.Informed() {
		t.Fatal("capture by informed recruiter did not inform")
	}
	if act := a.Act(3); act.Kind != sim.ActionRecruit || !act.Active || act.Nest != 2 {
		t.Fatalf("informed ant act = %+v, want recruit(1, 2)", act)
	}
}

func TestAdaptiveConverges(t *testing.T) {
	t.Parallel()
	env, err := sim.Uniform(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 5; seed++ {
		res := runAlgo(t, Adaptive{}, 256, env, seed, 0)
		if !res.Solved {
			t.Fatalf("seed %d: adaptive unsolved", seed)
		}
		if !env.Good(res.Winner) {
			t.Fatalf("seed %d: adaptive picked bad nest %d", seed, res.Winner)
		}
	}
}

func TestAdaptiveFasterThanSimpleAtLargeK(t *testing.T) {
	t.Parallel()
	// The §6 extension's raison d'être: beat O(k log n) when k is large.
	const n, reps = 512, 6
	env, err := sim.Uniform(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	var adTotal, simTotal int
	for seed := uint64(1); seed <= reps; seed++ {
		ad := runAlgo(t, Adaptive{}, n, env, seed, 0)
		si := runAlgo(t, Simple{}, n, env, seed, 0)
		if !ad.Solved || !si.Solved {
			t.Fatalf("seed %d: adaptive=%v simple=%v", seed, ad.Solved, si.Solved)
		}
		adTotal += ad.Rounds
		simTotal += si.Rounds
	}
	if adTotal >= simTotal {
		t.Fatalf("adaptive (%d total rounds) not faster than simple (%d) at k=32", adTotal, simTotal)
	}
}

func TestAdaptiveProbabilitySchedule(t *testing.T) {
	t.Parallel()
	// The recruit probability must (a) start near count/n, (b) grow as phases
	// pass, and (c) stay strictly below 1 and increasing in count.
	a := NewAdaptiveAnt(1024, testKey(4), 0, 4, 8)
	a.count = 64 // n/k for k=16
	early := a.recruitProbability()
	if math.Abs(early-64.0/(64+1024)) > 1e-9 {
		t.Fatalf("early probability %v, want count/(count+n)", early)
	}
	a.recruitPhases = 40 // far past the floor
	late := a.recruitProbability()
	if late <= early {
		t.Fatalf("probability did not grow: early %v late %v", early, late)
	}
	floorA := 1024.0 / 8
	want := 64 / (64 + floorA)
	if math.Abs(late-want) > 1e-9 {
		t.Fatalf("late probability %v, want floored %v", late, want)
	}
	bigger := *a
	bigger.count = 128
	if bigger.recruitProbability() <= a.recruitProbability() {
		t.Fatal("probability not increasing in count")
	}
	if p := bigger.recruitProbability(); p >= 1 {
		t.Fatalf("probability %v reached 1", p)
	}
}

func TestAdaptiveDefaults(t *testing.T) {
	t.Parallel()
	a := NewAdaptiveAnt(100, testKey(5), 0, 0, 0)
	if a.tau != 2 || a.floorDiv != 4 {
		t.Fatalf("defaults: tau=%d floorDiv=%v", a.tau, a.floorDiv)
	}
}

func TestQualityAwarePrefersBestNest(t *testing.T) {
	t.Parallel()
	// Non-binary qualities: 0.9 vs 0.3 vs 0.2. The quality-weighted urn race
	// should pick the best nest in a strong majority of runs.
	env := sim.MustEnvironment([]float64{0.3, 0.9, 0.2})
	best := 0
	const reps = 12
	for seed := uint64(1); seed <= reps; seed++ {
		res := runAlgo(t, QualityAware{}, 256, env, seed, 0)
		if !res.Solved {
			t.Fatalf("seed %d unsolved", seed)
		}
		if res.Winner == 2 {
			best++
		}
	}
	if best < reps*2/3 {
		t.Fatalf("best nest won only %d/%d runs", best, reps)
	}
}

func TestQualityAwareBinaryReducesToGoodChoice(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{0, 1, 0})
	res := runAlgo(t, QualityAware{}, 128, env, 2, 0)
	if !res.Solved || res.Winner != 2 {
		t.Fatalf("binary environment: %+v", res)
	}
}

func TestQualityAntRepricesAfterCapture(t *testing.T) {
	t.Parallel()
	a := NewQualityAnt(100, testKey(6), 0)
	a.Act(1)
	a.Observe(1, sim.Outcome{Nest: 1, Count: 10, Quality: 0.8})
	a.Act(2)
	a.Observe(2, sim.Outcome{Nest: 2, Count: 0, Recruited: true})
	if a.quality != 0 {
		t.Fatalf("captured ant's quality = %v, want conservative 0", a.quality)
	}
	a.Act(3)
	a.Observe(3, sim.Outcome{Nest: 2, Count: 12, Quality: 0.6})
	if a.quality != 0.6 {
		t.Fatalf("revisit did not reprice: quality = %v", a.quality)
	}
}

func TestNoisyExactPerceptionMatchesSimple(t *testing.T) {
	t.Parallel()
	// With exact perception the noisy ant's behaviour — including its RNG
	// draw sequence — is identical to SimpleAnt, so whole executions must
	// coincide round for round.
	env := sim.MustEnvironment([]float64{1, 0, 1})
	const n = 96
	for seed := uint64(1); seed <= 3; seed++ {
		plain, err := core.Run(Simple{}, core.RunConfig{N: n, Env: env, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		noisy, err := core.Run(Noisy{}, core.RunConfig{N: n, Env: env, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Rounds != noisy.Rounds || plain.Winner != noisy.Winner {
			t.Fatalf("seed %d: exact-noisy diverged from simple: %+v vs %+v", seed, plain, noisy)
		}
	}
}

func TestNoisyToleratesModerateCountNoise(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0, 1, 0})
	a := Noisy{Counter: nest.RelativeNoiseCounter{Sigma: 0.3}}
	solved := 0
	const reps = 8
	for seed := uint64(1); seed <= reps; seed++ {
		res := runAlgo(t, a, 192, env, seed, 0)
		if res.Solved && env.Good(res.Winner) {
			solved++
		}
	}
	if solved < reps-1 {
		t.Fatalf("solved only %d/%d with sigma=0.3 count noise", solved, reps)
	}
}

func TestNoisyToleratesAssessmentFlips(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0, 1, 0})
	a := Noisy{Assessor: nest.FlipAssessor{P: 0.1}}
	solved := 0
	const reps = 8
	for seed := uint64(1); seed <= reps; seed++ {
		res := runAlgo(t, a, 192, env, seed, 0)
		if res.Solved && env.Good(res.Winner) {
			solved++
		}
	}
	if solved < reps/2 {
		t.Fatalf("solved only %d/%d with 10%% assessment flips", solved, reps)
	}
}

func TestNoisyBuilderValidation(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	if _, err := (Noisy{}).Build(0, env, testSrc(1)); err == nil {
		t.Fatal("zero colony accepted")
	}
	if _, err := NewNoisyAnt(10, testKey(1), 0, nil, nest.ExactAssessor{}, 0.5); err == nil {
		t.Fatal("nil counter accepted")
	}
	if (Noisy{}).Name() == "" {
		t.Fatal("empty name")
	}
}
