package stats

import (
	"math"
	"sort"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
)

// TestSketchAccuracy checks every quantile against the sorted-slice oracle
// within the sketch's relative-error guarantee, allowing a ±1 rank slack for
// ties at bucket boundaries.
func TestSketchAccuracy(t *testing.T) {
	const alpha = 0.01
	src := rng.New(0xA11CE)
	samples := make([]float64, 5000)
	for i := range samples {
		// Convergence-time-shaped data: positive, right-skewed.
		samples[i] = math.Floor(1 + 400*math.Exp(2*float64(src.Intn(1000))/1000.0-1))
	}
	s := MustQuantileSketch(alpha)
	for _, x := range samples {
		s.Add(x)
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)

	for q := 0.0; q <= 1.0; q += 0.005 {
		got := s.Quantile(q)
		// Accept a match against any sample within ±1 rank of the target:
		// the sketch uses closest-rank semantics while Quantile interpolates.
		pos := q * float64(len(sorted)-1)
		lo := int(math.Floor(pos)) - 1
		hi := int(math.Ceil(pos)) + 1
		if lo < 0 {
			lo = 0
		}
		if hi >= len(sorted) {
			hi = len(sorted) - 1
		}
		ok := false
		for r := lo; r <= hi; r++ {
			want := sorted[r]
			if math.Abs(got-want) <= alpha*want+1e-12 {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("Quantile(%g) = %g not within %g%% of any sample in rank window [%g, %g]",
				q, got, alpha*100, sorted[lo], sorted[hi])
		}
	}
	if s.N() != uint64(len(samples)) {
		t.Errorf("N = %d, want %d", s.N(), len(samples))
	}
	if s.Min() != sorted[0] || s.Max() != sorted[len(sorted)-1] {
		t.Errorf("min/max = %g/%g, want %g/%g", s.Min(), s.Max(), sorted[0], sorted[len(sorted)-1])
	}
}

func TestSketchZeroAndNegative(t *testing.T) {
	s := MustQuantileSketch(0.01)
	s.Add(0)
	s.Add(-5)
	s.Add(10)
	if s.N() != 3 {
		t.Fatalf("N = %d, want 3", s.N())
	}
	if s.Min() != -5 || s.Max() != 10 {
		t.Fatalf("min/max = %g/%g, want -5/10", s.Min(), s.Max())
	}
	if got := s.Quantile(0); got != -5 {
		t.Errorf("Quantile(0) = %g, want -5", got)
	}
	if got := s.Quantile(1); got != 10 {
		t.Errorf("Quantile(1) = %g, want 10", got)
	}
}

func TestSketchEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty sketch Quantile")
		}
	}()
	MustQuantileSketch(0.01).Quantile(0.5)
}

func TestNewQuantileSketchRejectsBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if _, err := NewQuantileSketch(alpha); err == nil {
			t.Errorf("NewQuantileSketch(%g): expected error", alpha)
		}
	}
}
