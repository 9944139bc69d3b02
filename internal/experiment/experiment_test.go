package experiment

import (
	"fmt"
	"strings"
	"testing"

	"github.com/gmrl/househunt/internal/algo"
	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/workload"
)

func TestMeasureConvergence(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0, 1})
	pt, err := MeasureConvergence(algo.Simple{}, core.RunConfig{N: 96, Env: env}, 8, "test-e")
	if err != nil {
		t.Fatal(err)
	}
	if pt.Reps != 8 || pt.Solved != 8 || pt.SuccessRate != 1 {
		t.Fatalf("point = %+v", pt)
	}
	if pt.Rounds.Mean <= 0 || pt.Rounds.N != 8 {
		t.Fatalf("rounds summary = %+v", pt.Rounds)
	}
	if pt.WinnerQuality.Mean != 1 {
		t.Fatalf("winner quality = %v", pt.WinnerQuality.Mean)
	}
}

func TestMeasureConvergenceDeterministic(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 1})
	a, err := MeasureConvergence(algo.Simple{}, core.RunConfig{N: 64, Env: env}, 4, "det")
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureConvergence(algo.Simple{}, core.RunConfig{N: 64, Env: env}, 4, "det")
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds.Mean != b.Rounds.Mean {
		t.Fatalf("same tag diverged: %v vs %v", a.Rounds.Mean, b.Rounds.Mean)
	}
}

func TestMeasureConvergenceValidation(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	if _, err := MeasureConvergence(nil, core.RunConfig{N: 4, Env: env}, 2, "x"); err == nil {
		t.Fatal("nil algorithm accepted")
	}
	if _, err := MeasureConvergence(algo.Simple{}, core.RunConfig{N: 4, Env: env}, 0, "x"); err == nil {
		t.Fatal("zero reps accepted")
	}
}

// TestMeasureConvergenceScalarPanic pins that a panic in a scalar replicate
// (here a custom wrapper, which keeps the sweep off the batch engine) fails
// the measurement with an error naming the replicate and its seed, instead
// of ending the process from a replicate goroutine.
func TestMeasureConvergenceScalarPanic(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0})
	cfg := core.RunConfig{N: 16, Env: env, Wrap: core.WrapFunc(func([]sim.Agent) ([]sim.Agent, error) {
		panic("wrapper failed")
	})}
	_, err := MeasureConvergence(algo.Simple{}, cfg, 3, "panic")
	want := fmt.Sprintf("experiment: rep 0 (seed %d): panicked: wrapper failed", workload.SeedFor("panic", cfg.N, env.K(), 1))
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error %v, want one starting %q", err, want)
	}
}

// TestSweepAndFits checks that both fitted slopes are positive. The log-n
// slope at k=2 is positive iff the mean at n=256 beats the mean at n=64:
// over 8000 replicates per cell those means are 36.3 and 27.1 rounds with
// standard deviations of 8.7 and 8.8, so at sweepFitReps replicates a
// negative slope has probability Φ(-9.2/√(2·8.7²/48)) ≈ 1e-7 (4 replicates
// failed for 7% of seeds). The k·log n slope is safer still.
func TestSweepAndFits(t *testing.T) {
	t.Parallel()
	const sweepFitReps = 48
	grid := workload.Grid{Ns: []int{64, 256}, Ks: []int{2, 4}, Tag: "sweep-test"}
	points, err := Sweep(algo.Simple{}, grid, nil, sweepFitReps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	fit, err := FitRoundsVsKLogN(points)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope <= 0 {
		t.Fatalf("k·log n fit slope %v, want positive", fit.Slope)
	}
	// Restrict to k=2 and fit against log n.
	var k2 []ConvergencePoint
	for _, p := range points {
		if p.K == 2 {
			k2 = append(k2, p)
		}
	}
	logFit, err := FitRoundsVsLogN(k2)
	if err != nil {
		t.Fatal(err)
	}
	if logFit.Slope <= 0 {
		t.Fatalf("log n fit slope %v, want positive", logFit.Slope)
	}
	out := Table("sweep", points)
	if !strings.Contains(out, "simple") || !strings.Contains(out, "success") {
		t.Fatalf("table rendering:\n%s", out)
	}
}

func TestMeasureRecruitSuccessLemma21(t *testing.T) {
	t.Parallel()
	m := &sim.AlgorithmOneMatcher{}
	for _, pool := range []int{2, 4, 32, 256} {
		pt, err := MeasureRecruitSuccess(m, pool, 1.0, 4000, 11)
		if err != nil {
			t.Fatal(err)
		}
		if pt.WilsonLo < 1.0/16 {
			t.Fatalf("pool %d: Wilson lower bound %.4f below Lemma 2.1's 1/16", pool, pt.WilsonLo)
		}
	}
	if _, err := MeasureRecruitSuccess(m, 0, 1, 10, 1); err == nil {
		t.Fatal("pool 0 accepted")
	}
	if _, err := MeasureRecruitSuccess(m, 2, 1, 0, 1); err == nil {
		t.Fatal("zero trials accepted")
	}
}

func TestMeasureIgnorantPersistenceLemma31(t *testing.T) {
	t.Parallel()
	pt, err := MeasureIgnorantPersistence(2048, 7, 32)
	if err != nil {
		t.Fatal(err)
	}
	if pt.MinStayRate < 0.25 {
		t.Fatalf("min stay rate %.4f below Lemma 3.1's 1/4", pt.MinStayRate)
	}
	if pt.Rounds <= 0 {
		t.Fatalf("no rounds measured: %+v", pt)
	}
	if _, err := MeasureIgnorantPersistence(2, 1, 1); err == nil {
		t.Fatal("tiny n accepted")
	}
}

func TestMeasureNestDeltaLemmas41And42(t *testing.T) {
	t.Parallel()
	m := &sim.AlgorithmOneMatcher{}
	// Two equal competing nests: symmetry (Lemma 4.1) and drop-out
	// probability >= 1/66 (Lemma 4.2).
	pt, err := MeasureNestDelta(m, []int{64, 64}, 20000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if pt.PNeg < 1.0/66 {
		t.Fatalf("P[Y<0] = %.4f below Lemma 4.2's 1/66", pt.PNeg)
	}
	if diff := pt.PNeg - pt.PPos; diff > 0.02 || diff < -0.02 {
		t.Fatalf("Lemma 4.1 symmetry violated: P[Y<0]=%.4f vs P[Y>0]=%.4f", pt.PNeg, pt.PPos)
	}
	// Asymmetric nests keep the symmetry property per Lemma 4.1.
	pt, err = MeasureNestDelta(m, []int{32, 96}, 20000, 17)
	if err != nil {
		t.Fatal(err)
	}
	if diff := pt.PNeg - pt.PPos; diff > 0.02 || diff < -0.02 {
		t.Fatalf("asymmetric symmetry violated: %.4f vs %.4f", pt.PNeg, pt.PPos)
	}
	if _, err := MeasureNestDelta(m, nil, 10, 1); err == nil {
		t.Fatal("no nests accepted")
	}
	if _, err := MeasureNestDelta(m, []int{0}, 10, 1); err == nil {
		t.Fatal("empty nest accepted")
	}
}

func TestMeasureInitialGapLemma54(t *testing.T) {
	t.Parallel()
	pt, err := MeasureInitialGap(256, 4, 20000, 19)
	if err != nil {
		t.Fatal(err)
	}
	if pt.MeanGap < pt.BoundMin {
		t.Fatalf("E[ε] = %v below Lemma 5.4's bound %v", pt.MeanGap, pt.BoundMin)
	}
	// The proof's core combinatorial fact: ties happen with probability < 2/3.
	if pt.TieRate >= 2.0/3 {
		t.Fatalf("tie rate %.4f not below 2/3", pt.TieRate)
	}
	if _, err := MeasureInitialGap(1, 2, 10, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestMeasureExtinctionLemmas58And59(t *testing.T) {
	t.Parallel()
	// d=8 (rather than the paper's 64) raises the threshold so small test
	// runs still produce crossings to grade.
	pt, err := MeasureExtinction(256, 4, 4, 8, 23)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Crossings == 0 {
		t.Fatal("no threshold crossings observed; experiment mis-sized")
	}
	if pt.Recovered > 0 {
		t.Fatalf("%d sub-threshold nests won the run (Lemma 5.9 violated)", pt.Recovered)
	}
	if pt.Extinct == 0 {
		t.Fatal("no extinctions recorded")
	}
	if pt.MeanLinger > float64(pt.BudgetRounds) {
		t.Fatalf("mean linger %.1f exceeds the O(k log n) budget %d", pt.MeanLinger, pt.BudgetRounds)
	}
	if _, err := MeasureExtinction(0, 1, 1, 1, 1); err == nil {
		t.Fatal("invalid parameters accepted")
	}
}
