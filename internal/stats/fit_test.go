package stats

import (
	"math"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
)

func TestFitLinearExact(t *testing.T) {
	t.Parallel()
	xs := []float64{1, 2, 3, 4, 5}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 7
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 3, 1e-12) || !almostEqual(fit.Intercept, -7, 1e-12) {
		t.Fatalf("fit = %+v, want slope 3 intercept -7", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-12) {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitLinearNoisy(t *testing.T) {
	t.Parallel()
	src := rng.New(404)
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 2*xs[i] + 5 + src.NormFloat64()*3
	}
	fit, err := FitLinear(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Slope-2) > 0.05 {
		t.Fatalf("slope = %v, want ~2", fit.Slope)
	}
	if fit.R2 < 0.98 {
		t.Fatalf("R2 = %v, want > 0.98", fit.R2)
	}
}

func TestFitLinearErrors(t *testing.T) {
	t.Parallel()
	if _, err := FitLinear([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := FitLinear([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := FitLinear([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("zero x-variance accepted")
	}
}

func TestFitLinearConstantY(t *testing.T) {
	t.Parallel()
	fit, err := FitLinear([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 0, 1e-12) || !almostEqual(fit.R2, 1, 1e-12) {
		t.Fatalf("constant fit = %+v", fit)
	}
}

func TestFitLogN(t *testing.T) {
	t.Parallel()
	// rounds = 4*log2(n) + 2 exactly.
	ns := []float64{256, 1024, 4096, 16384, 65536}
	ys := make([]float64, len(ns))
	for i, n := range ns {
		ys[i] = 4*math.Log2(n) + 2
	}
	fit, err := FitLogN(ns, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 4, 1e-9) || !almostEqual(fit.Intercept, 2, 1e-9) {
		t.Fatalf("FitLogN = %+v", fit)
	}
	if _, err := FitLogN([]float64{-1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestFitKLogN(t *testing.T) {
	t.Parallel()
	ks := []float64{2, 4, 8, 2, 4, 8}
	ns := []float64{1024, 1024, 1024, 65536, 65536, 65536}
	ys := make([]float64, len(ks))
	for i := range ks {
		ys[i] = 1.5*ks[i]*math.Log2(ns[i]) + 3
	}
	fit, err := FitKLogN(ks, ns, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 1.5, 1e-9) || !almostEqual(fit.Intercept, 3, 1e-9) {
		t.Fatalf("FitKLogN = %+v", fit)
	}
	if _, err := FitKLogN([]float64{1}, []float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestLinearFitString(t *testing.T) {
	t.Parallel()
	s := LinearFit{Slope: 2, Intercept: -1, R2: 0.99, N: 10}.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}
