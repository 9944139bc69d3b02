package algo

import (
	"math"
	"testing"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/sim"
)

func TestOptimalConvergesSmall(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0, 1, 0})
	res := runAlgo(t, Optimal{}, 128, env, 1, 0)
	if !res.Solved {
		t.Fatalf("optimal did not converge: %+v", res)
	}
	if !env.Good(res.Winner) {
		t.Fatalf("winner %d is a bad nest", res.Winner)
	}
	// Algorithm 2 terminates with every ant decided (final state).
	if res.FinalCensus.Decided != res.FinalCensus.Total {
		t.Fatalf("not all ants final: %+v", res.FinalCensus)
	}
}

func TestOptimalSingleNestDeterministicSchedule(t *testing.T) {
	t.Parallel()
	// With k=1 every ant finds the nest in round 1, the single 4-round phase
	// (rounds 2-5) runs Case 1 for everyone, and count_h = count = n at R4
	// finalizes the whole colony simultaneously: convergence at round 5,
	// independent of n and seed.
	env := sim.MustEnvironment([]float64{1})
	for _, n := range []int{4, 32, 100} {
		for seed := uint64(1); seed <= 3; seed++ {
			res := runAlgo(t, Optimal{}, n, env, seed, 0)
			if !res.Solved || res.Winner != 1 {
				t.Fatalf("n=%d seed=%d: %+v", n, seed, res)
			}
			if res.Rounds != 5 {
				t.Fatalf("n=%d seed=%d: converged at round %d, want exactly 5", n, seed, res.Rounds)
			}
		}
	}
}

func TestOptimalAlwaysPicksGoodNest(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{0, 1, 0, 0})
	for seed := uint64(1); seed <= 20; seed++ {
		res := runAlgo(t, Optimal{}, 120, env, seed, 0)
		if !res.Solved {
			t.Fatalf("seed %d: did not converge", seed)
		}
		if res.Winner != 2 {
			t.Fatalf("seed %d: winner %d, want the unique good nest 2", seed, res.Winner)
		}
	}
}

func TestOptimalFasterThanSimpleForLargeK(t *testing.T) {
	t.Parallel()
	// Theorem 4.3 vs 5.11: at k=16 the O(log n) algorithm must beat the
	// O(k log n) one clearly on average.
	const n, reps = 512, 5
	env, err := sim.Uniform(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	var optTotal, simTotal int
	for seed := uint64(1); seed <= reps; seed++ {
		o := runAlgo(t, Optimal{}, n, env, seed, 0)
		s := runAlgo(t, Simple{}, n, env, seed, 0)
		if !o.Solved || !s.Solved {
			t.Fatalf("seed %d: opt solved=%v simple solved=%v", seed, o.Solved, s.Solved)
		}
		optTotal += o.Rounds
		simTotal += s.Rounds
	}
	if optTotal >= simTotal {
		t.Fatalf("optimal (%d total rounds) not faster than simple (%d) at k=16", optTotal, simTotal)
	}
}

func TestOptimalLogarithmicScaling(t *testing.T) {
	t.Parallel()
	// Rounds should grow roughly additively when n doubles repeatedly — the
	// O(log n) signature. We assert the ratio rounds(n=4096)/rounds(n=64) is
	// far below the linear ratio 64, and below even sqrt growth.
	env, err := sim.Uniform(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	avg := func(n int) float64 {
		const reps = 5
		total := 0
		for seed := uint64(1); seed <= reps; seed++ {
			res := runAlgo(t, Optimal{}, n, env, seed, 0)
			if !res.Solved {
				t.Fatalf("n=%d seed=%d unsolved", n, seed)
			}
			total += res.Rounds
		}
		return float64(total) / reps
	}
	small, large := avg(64), avg(4096)
	if ratio := large / small; ratio > 4 {
		t.Fatalf("scaling ratio %v for 64x colony growth is not logarithmic (small=%v large=%v)",
			ratio, small, large)
	}
}

func TestOptimalAntStateMachine(t *testing.T) {
	t.Parallel()
	// Unit-level walk of the happy path: search → active case 1 → final.
	a := NewOptimalAnt(false)
	if got := a.Act(1); got.Kind != sim.ActionSearch {
		t.Fatalf("round 1 act = %+v", got)
	}
	a.Observe(1, sim.Outcome{Nest: 1, Count: 4, Quality: 1})
	if a.State() != "active" {
		t.Fatalf("state after good search = %s", a.State())
	}

	// Phase rounds 2-5 (R1-R4), Case 1 with stable population.
	if got := a.Act(2); got.Kind != sim.ActionRecruit || !got.Active || got.Nest != 1 {
		t.Fatalf("R1 act = %+v, want recruit(1,1)", got)
	}
	a.Observe(2, sim.Outcome{Nest: 1, Count: 9}) // not captured
	if got := a.Act(3); got.Kind != sim.ActionGo || got.Nest != 1 {
		t.Fatalf("R2 act = %+v, want go(1)", got)
	}
	a.Observe(3, sim.Outcome{Nest: 1, Count: 6}) // count_t = 6 >= 4: Case 1
	if got := a.Act(4); got.Kind != sim.ActionGo || got.Nest != 1 {
		t.Fatalf("R3 act = %+v, want go(1)", got)
	}
	a.Observe(4, sim.Outcome{Nest: 1, Count: 6})
	if got := a.Act(5); got.Kind != sim.ActionRecruit || got.Active {
		t.Fatalf("R4 act = %+v, want recruit(0,1)", got)
	}
	a.Observe(5, sim.Outcome{Nest: 1, Count: 6}) // count_h = 6 == count: finalize
	if a.State() != "final" {
		t.Fatalf("state after count_h == count: %s", a.State())
	}
	if !a.Decided() {
		t.Fatal("final ant not decided")
	}
	if got := a.Act(6); got.Kind != sim.ActionRecruit || !got.Active {
		t.Fatalf("final act = %+v, want recruit(1, ·)", got)
	}
}

func TestOptimalAntDropout(t *testing.T) {
	t.Parallel()
	// Case 2: population decreased → passive, with the paper's padding calls.
	a := NewOptimalAnt(false)
	a.Act(1)
	a.Observe(1, sim.Outcome{Nest: 2, Count: 10, Quality: 1})
	a.Act(2)
	a.Observe(2, sim.Outcome{Nest: 2}) // not captured
	a.Act(3)
	a.Observe(3, sim.Outcome{Nest: 2, Count: 7}) // decrease: Case 2
	if got := a.Act(4); got.Kind != sim.ActionRecruit || got.Active {
		t.Fatalf("case-2 R3 act = %+v, want recruit(0, ·) padding", got)
	}
	a.Observe(4, sim.Outcome{Nest: 2, Count: 3})
	if got := a.Act(5); got.Kind != sim.ActionGo {
		t.Fatalf("case-2 R4 act = %+v, want go padding", got)
	}
	if a.State() != "active" {
		t.Fatalf("state must switch only at the phase boundary, got %s", a.State())
	}
	a.Observe(5, sim.Outcome{Nest: 2, Count: 3})
	if a.State() != "passive" {
		t.Fatalf("state after dropout = %s, want passive", a.State())
	}
}

func TestOptimalAntRecruitedAway(t *testing.T) {
	t.Parallel()
	// Case 3: captured during R1; the repaired variant re-baselines count.
	a := NewOptimalAnt(false)
	a.Act(1)
	a.Observe(1, sim.Outcome{Nest: 1, Count: 50, Quality: 1})
	a.Act(2)
	a.Observe(2, sim.Outcome{Nest: 4, Count: 0, Recruited: true}) // captured to nest 4
	if nest, _ := a.Committed(); nest != 4 {
		// Commitment switches at R2 per lines 37-38.
		if got := a.Act(3); got.Nest != 4 {
			t.Fatalf("R2 act = %+v, want go(4)", got)
		}
	}
	a.Act(3)
	a.Observe(3, sim.Outcome{Nest: 4, Count: 30}) // count_t at new nest
	a.Act(4)
	a.Observe(4, sim.Outcome{Nest: 4, Count: 30}) // count_n == count_t: competing
	a.Act(5)
	a.Observe(5, sim.Outcome{Nest: 4, Count: 30})
	if a.State() != "active" {
		t.Fatalf("state = %s, want active (nest still competing)", a.State())
	}
	// Repaired semantics: count is re-baselined to 30, so a subsequent phase
	// with count_t = 32 stays Case 1.
	a.Act(6)
	a.Observe(6, sim.Outcome{Nest: 4})
	a.Act(7)
	a.Observe(7, sim.Outcome{Nest: 4, Count: 32})
	a.Act(8)
	a.Observe(8, sim.Outcome{Nest: 4, Count: 32})
	a.Act(9)
	a.Observe(9, sim.Outcome{Nest: 4, Count: 40})
	if a.State() != "active" {
		t.Fatalf("repaired ant dropped out despite growth: %s", a.State())
	}
}

func TestOptimalLiteralAntKeepsStaleCount(t *testing.T) {
	t.Parallel()
	// Same trajectory as above under the literal pseudocode: the stale count
	// of 50 makes count_t = 32 < 50 look like a decrease → spurious dropout.
	a := NewOptimalAnt(true)
	a.Act(1)
	a.Observe(1, sim.Outcome{Nest: 1, Count: 50, Quality: 1})
	a.Act(2)
	a.Observe(2, sim.Outcome{Nest: 4, Count: 0, Recruited: true})
	a.Act(3)
	a.Observe(3, sim.Outcome{Nest: 4, Count: 30})
	a.Act(4)
	a.Observe(4, sim.Outcome{Nest: 4, Count: 30})
	a.Act(5)
	a.Observe(5, sim.Outcome{Nest: 4, Count: 30})
	a.Act(6)
	a.Observe(6, sim.Outcome{Nest: 4})
	a.Act(7)
	a.Observe(7, sim.Outcome{Nest: 4, Count: 32}) // 32 < stale 50: Case 2
	a.Act(8)
	a.Observe(8, sim.Outcome{Nest: 4, Count: 32})
	a.Act(9)
	a.Observe(9, sim.Outcome{Nest: 4, Count: 32})
	if a.State() != "passive" {
		t.Fatalf("literal ant state = %s, want the spurious passive dropout", a.State())
	}
}

func TestOptimalPassiveCapturedBecomesFinal(t *testing.T) {
	t.Parallel()
	a := NewOptimalAnt(false)
	a.Act(1)
	a.Observe(1, sim.Outcome{Nest: 3, Count: 2, Quality: 0}) // bad nest → passive
	if a.State() != "passive" {
		t.Fatalf("state = %s", a.State())
	}
	if got := a.Act(2); got.Kind != sim.ActionGo || got.Nest != 3 {
		t.Fatalf("passive R1 = %+v, want go(3)", got)
	}
	a.Observe(2, sim.Outcome{Nest: 3, Count: 1})
	if got := a.Act(3); got.Kind != sim.ActionRecruit || got.Active {
		t.Fatalf("passive R2 = %+v, want recruit(0,3)", got)
	}
	a.Observe(3, sim.Outcome{Nest: 5, Count: 4, Recruited: true}) // captured by a final ant
	// Lines 18-19: the block finishes with go(new nest) twice before final.
	if got := a.Act(4); got.Kind != sim.ActionGo || got.Nest != 5 {
		t.Fatalf("passive R3 = %+v, want go(5)", got)
	}
	a.Observe(4, sim.Outcome{Nest: 5, Count: 4})
	if a.State() != "passive" {
		t.Fatal("became final before the block boundary")
	}
	if got := a.Act(5); got.Kind != sim.ActionGo || got.Nest != 5 {
		t.Fatalf("passive R4 = %+v, want go(5)", got)
	}
	a.Observe(5, sim.Outcome{Nest: 5, Count: 4})
	if a.State() != "final" || !a.Decided() {
		t.Fatalf("state = %s after boundary, want final", a.State())
	}
}

func TestOptimalLiteralStillRunsWithoutError(t *testing.T) {
	t.Parallel()
	// The literal variant may deadlock (see the OptimalAnt doc comment and
	// ablation E17) but must never corrupt the protocol: every run completes
	// without engine errors, solved or not.
	env := sim.MustEnvironment([]float64{1, 1})
	solved := 0
	for seed := uint64(1); seed <= 10; seed++ {
		res, err := core.Run(Optimal{Literal: true}, core.RunConfig{
			N: 128, Env: env, Seed: seed, MaxRounds: 2000,
		})
		if err != nil {
			t.Fatalf("seed %d: protocol error: %v", seed, err)
		}
		if res.Solved {
			solved++
		}
	}
	t.Logf("literal Algorithm 2 solved %d/10 runs (deadlock rate is quantified in E17)", solved)
}

func TestOptimalBuilderValidation(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	if _, err := (Optimal{}).Build(0, env, testSrc(1)); err == nil {
		t.Fatal("zero colony accepted")
	}
	if _, err := (Optimal{}).Build(3, sim.Environment{}, testSrc(1)); err == nil {
		t.Fatal("empty environment accepted")
	}
	if (Optimal{}).Name() == (Optimal{Literal: true}).Name() {
		t.Fatal("literal and repaired variants share a name")
	}
}

func TestOptimalScalingBeatsLinear(t *testing.T) {
	t.Parallel()
	// Convergence rounds divided by log2(n) should stay bounded as n grows —
	// a cheap empirical stand-in for Theorem 4.3 used as a regression guard.
	env, err := sim.Uniform(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{64, 512, 4096} {
		res := runAlgo(t, Optimal{}, n, env, 11, 0)
		if !res.Solved {
			t.Fatalf("n=%d unsolved", n)
		}
		normalized := float64(res.Rounds) / math.Log2(float64(n))
		if normalized > 30 {
			t.Fatalf("n=%d: rounds/log2(n) = %.1f, far above the O(log n) regime", n, normalized)
		}
	}
}
