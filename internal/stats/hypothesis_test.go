package stats

import (
	"math"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
)

func TestChiSquareSFKnownValues(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		x    float64
		dof  int
		want float64
	}{
		{3.841458820694124, 1, 0.05},
		{6.634896601021214, 1, 0.01},
		{18.307038053275146, 10, 0.05},
		{0.5, 3, 0.9188914343},
		{124.3421134, 100, 0.05},
		{1, 2, math.Exp(-0.5)}, // χ²(2) is Exp(1/2): SF(x) = e^{-x/2}
		{40, 2, math.Exp(-20)},
		{0, 4, 1},
	} {
		got := ChiSquareSF(tc.x, tc.dof)
		if math.Abs(got-tc.want) > 1e-5*math.Max(tc.want, 1e-3) {
			t.Errorf("ChiSquareSF(%v, %d) = %.10g, want %.10g", tc.x, tc.dof, got, tc.want)
		}
	}
}

func TestChiSquareGOFPoolsAndRejects(t *testing.T) {
	t.Parallel()
	// A perfect fit has statistic 0 and p = 1.
	stat, dof, p := ChiSquareGOF([]int{50, 30, 20}, []float64{50, 30, 20}, 5)
	if stat != 0 || dof != 2 || p != 1 {
		t.Fatalf("perfect fit: stat=%v dof=%d p=%v", stat, dof, p)
	}
	// Categories below minExpected pool into one bin: 5 categories, two of
	// them tiny, leave 3 bins (2 dof).
	_, dof, _ = ChiSquareGOF([]int{1, 2, 40, 30, 27}, []float64{1.5, 1.5, 40, 30, 27}, 5)
	if dof != 2 {
		t.Fatalf("pooled dof = %d, want 2", dof)
	}
	// A pool that stays below minExpected folds into the smallest kept bin.
	_, dof, _ = ChiSquareGOF([]int{1, 40, 59}, []float64{1, 40, 59}, 5)
	if dof != 1 {
		t.Fatalf("folded-pool dof = %d, want 1", dof)
	}
	// An observation where nothing is expected is impossible.
	if _, _, p := ChiSquareGOF([]int{1, 99}, []float64{0, 100}, 5); p != 0 {
		t.Fatalf("impossible category p = %v, want 0", p)
	}
	// A gross misfit is rejected: statistic 36 on 1 dof.
	if _, _, p := ChiSquareGOF([]int{80, 20}, []float64{50, 50}, 5); p > 1e-8 {
		t.Fatalf("misfit p = %v", p)
	}
}

func TestChiSquareHomogeneity(t *testing.T) {
	t.Parallel()
	if _, dof, p := ChiSquareHomogeneity([]int{10, 20, 30, 0}, []int{20, 40, 60, 0}, 5); dof != 2 || math.Abs(p-1) > 1e-12 {
		t.Fatalf("proportional samples: dof=%d p=%v", dof, p)
	}
	if _, _, p := ChiSquareHomogeneity([]int{90, 10}, []int{50, 50}, 5); p > 1e-9 {
		t.Fatalf("different samples p = %v", p)
	}
}

func TestKSTwoSample(t *testing.T) {
	t.Parallel()
	if d, p := KSTwoSample([]float64{1, 2, 2, 3}, []float64{3, 2, 1, 2}); d != 0 || p != 1 {
		t.Fatalf("identical samples: d=%v p=%v", d, p)
	}
	// Q(1.358) is the classic 5% critical value of the Kolmogorov law.
	if q := kolmogorovQ(1.3581); math.Abs(q-0.05) > 1e-4 {
		t.Fatalf("kolmogorovQ(1.3581) = %v, want 0.05", q)
	}
	src := rng.New(5)
	a := make([]float64, 2000)
	b := make([]float64, 2000)
	shifted := make([]float64, 2000)
	for i := range a {
		a[i] = float64(src.Intn(50))
		b[i] = float64(src.Intn(50))
		shifted[i] = float64(src.Intn(50) + 5)
	}
	if _, p := KSTwoSample(a, b); p < 1e-3 {
		t.Fatalf("same-law samples rejected: p = %v", p)
	}
	if d, p := KSTwoSample(a, shifted); p > 1e-9 || d < 0.05 {
		t.Fatalf("shifted samples: d=%v p=%v", d, p)
	}
}

// TestKSTwoSampleFalseAlarmOnTies pins the conservative direction on
// discrete data: under the null, over many replicate pairs of heavily tied
// samples, the test rejects at level 5% no more often than a 5% test may
// (with a binomial margin of 4 standard deviations).
func TestKSTwoSampleFalseAlarmOnTies(t *testing.T) {
	t.Parallel()
	src := rng.New(11)
	const trials, size = 2000, 200
	rejects := 0
	a := make([]float64, size)
	b := make([]float64, size)
	for trial := 0; trial < trials; trial++ {
		for i := range a {
			a[i] = float64(src.Intn(8))
			b[i] = float64(src.Intn(8))
		}
		if _, p := KSTwoSample(a, b); p < 0.05 {
			rejects++
		}
	}
	if limit := trials*0.05 + 4*math.Sqrt(trials*0.05*0.95); float64(rejects) > limit {
		t.Fatalf("KS rejected %d/%d null pairs at 5%%, above %.0f", rejects, trials, limit)
	}
}

func TestFisherExactGreater(t *testing.T) {
	t.Parallel()
	// 3/3 against 0/3: the one extreme table of C(6,3) = 20.
	if p := FisherExactGreater(3, 3, 0, 3); math.Abs(p-0.05) > 1e-12 {
		t.Fatalf("p = %v, want 0.05", p)
	}
	if p := FisherExactGreater(0, 10, 5, 10); math.Abs(p-1) > 1e-12 {
		t.Fatalf("reversed effect p = %v, want 1", p)
	}
	// Hypergeometric P[X >= 2] with N=20, K=4, draws 10: 1 - P0 - P1, where
	// P0 = C(16,10)/C(20,10) and P1 = 4·C(16,9)/C(20,10).
	p0 := 8008.0 / 184756
	p1 := 4 * 11440.0 / 184756
	if p := FisherExactGreater(2, 10, 2, 10); math.Abs(p-(1-p0-p1)) > 1e-12 {
		t.Fatalf("p = %v, want %v", p, 1-p0-p1)
	}
}
