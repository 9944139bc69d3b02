package stats

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/gmrl/househunt/internal/rng"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestWelfordBasics(t *testing.T) {
	t.Parallel()
	var w Welford
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	w.AddAll(xs)
	if w.N() != len(xs) {
		t.Fatalf("N = %d, want %d", w.N(), len(xs))
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", w.Mean())
	}
	// Unbiased sample variance of this classic dataset is 32/7.
	if !almostEqual(w.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordEmpty(t *testing.T) {
	t.Parallel()
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 || w.N() != 0 {
		t.Fatal("zero-value Welford should report zeros")
	}
}

func TestWelfordSingle(t *testing.T) {
	t.Parallel()
	var w Welford
	w.Add(3.5)
	if w.Mean() != 3.5 || w.Variance() != 0 {
		t.Fatalf("single observation: mean %v var %v", w.Mean(), w.Variance())
	}
}

// TestWelfordMatchesNaive is the property-based oracle: streaming moments must
// agree with the two-pass textbook computation on random data.
func TestWelfordMatchesNaive(t *testing.T) {
	t.Parallel()
	src := rng.New(101)
	f := func(seed uint16, length uint8) bool {
		n := int(length%100) + 2
		xs := make([]float64, n)
		local := src.Split(uint64(seed))
		for i := range xs {
			xs[i] = local.NormFloat64()*100 + 50
		}
		var w Welford
		w.AddAll(xs)

		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(n)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(n-1)
		return almostEqual(w.Mean(), mean, 1e-9*math.Abs(mean)+1e-9) &&
			almostEqual(w.Variance(), variance, 1e-9*variance+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCI95Coverage(t *testing.T) {
	t.Parallel()
	// Draw many samples of known mean; the CI should cover ~95% of the time.
	src := rng.New(303)
	const trials = 400
	covered := 0
	for trial := 0; trial < trials; trial++ {
		var w Welford
		for i := 0; i < 100; i++ {
			w.Add(src.NormFloat64() + 10)
		}
		lo, hi := w.CI95()
		if lo <= 10 && 10 <= hi {
			covered++
		}
	}
	frac := float64(covered) / trials
	if frac < 0.90 || frac > 0.99 {
		t.Fatalf("CI95 covered true mean in %.3f of trials, want ≈0.95", frac)
	}
}

func TestQuantile(t *testing.T) {
	t.Parallel()
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {-1, 1}, {2, 5},
	}
	for _, tc := range cases {
		if got := Quantile(sorted, tc.q); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := Quantile(sorted, 0.1); !almostEqual(got, 1.4, 1e-12) {
		t.Errorf("Quantile(0.1) = %v, want 1.4 (interpolated)", got)
	}
}

func TestQuantilePanicsOnEmpty(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile of empty slice did not panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestSummarize(t *testing.T) {
	t.Parallel()
	xs := []float64{5, 1, 4, 2, 3}
	s := Summarize(xs, true)
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	if len(s.SortedSnapshot) != 5 || s.SortedSnapshot[0] != 1 {
		t.Fatalf("snapshot not retained/sorted: %v", s.SortedSnapshot)
	}
	// Original slice must be untouched (copy-at-boundary).
	if xs[0] != 5 {
		t.Fatal("Summarize mutated its input")
	}
	empty := Summarize(nil, false)
	if empty.N != 0 {
		t.Fatalf("empty summary N = %d", empty.N)
	}
}

func TestMeanVarianceConvenience(t *testing.T) {
	t.Parallel()
	xs := []float64{1, 2, 3, 4}
	if got := Mean(xs); !almostEqual(got, 2.5, 1e-12) {
		t.Fatalf("Mean = %v", got)
	}
	if got := Variance(xs); !almostEqual(got, 5.0/3.0, 1e-12) {
		t.Fatalf("Variance = %v", got)
	}
}

// TestMeanCI95 pins the Student-t interval: a six-point sample against its
// hand-computed interval, the table's end and the expansion beyond it
// within 1e-4 of the true quantiles, and NaN below two observations.
func TestMeanCI95(t *testing.T) {
	t.Parallel()
	s := Summarize([]float64{1, 2, 3, 4, 5, 6}, false)
	lo, hi := s.MeanCI95()
	half := 2.570582 * math.Sqrt(3.5) / math.Sqrt(6)
	if math.Abs(lo-(3.5-half)) > 1e-9 || math.Abs(hi-(3.5+half)) > 1e-9 {
		t.Fatalf("MeanCI95 = [%v, %v], want 3.5 ± %v", lo, hi, half)
	}
	for _, tc := range []struct {
		df   int
		want float64
	}{{30, 2.042272}, {31, 2.039513}, {40, 2.021075}, {120, 1.979930}, {1 << 20, 1.959966}} {
		if got := tQuantile975(tc.df); math.Abs(got-tc.want) > 1e-4 {
			t.Errorf("tQuantile975(%d) = %v, want %v", tc.df, got, tc.want)
		}
	}
	if lo, hi := Summarize([]float64{7}, false).MeanCI95(); !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Fatalf("one observation: [%v, %v], want NaN", lo, hi)
	}
}
