package stats

import (
	"fmt"
	"math"
)

// LinearFit is the result of an ordinary least squares fit y ≈ Slope*x +
// Intercept, with the coefficient of determination R2 as goodness of fit.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R2        float64
	N         int
}

// String renders the fit in a compact, human-readable form.
func (f LinearFit) String() string {
	return fmt.Sprintf("y = %.4g*x %+.4g (R²=%.4f, n=%d)", f.Slope, f.Intercept, f.R2, f.N)
}

// FitLinear computes the OLS fit of ys against xs. The slices must have equal,
// non-zero length; mismatched input is a programming error and is reported as
// an error rather than a panic so harness code can surface it.
func FitLinear(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: FitLinear length mismatch: %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return LinearFit{}, fmt.Errorf("stats: FitLinear needs >= 2 points, got %d", len(xs))
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{}, fmt.Errorf("stats: FitLinear has zero x-variance")
	}
	slope := sxy / sxx
	intercept := my - slope*mx
	var r2 float64
	if syy > 0 {
		ssRes := 0.0
		for i := range xs {
			resid := ys[i] - (slope*xs[i] + intercept)
			ssRes += resid * resid
		}
		r2 = 1 - ssRes/syy
	} else {
		r2 = 1 // constant y perfectly explained by zero slope
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2, N: len(xs)}, nil
}

// FitLogN fits ys against log2(xs): the paper's O(log n) shape. xs must be
// strictly positive.
func FitLogN(xs, ys []float64) (LinearFit, error) {
	lx := make([]float64, len(xs))
	for i, x := range xs {
		if x <= 0 {
			return LinearFit{}, fmt.Errorf("stats: FitLogN requires positive x, got %v at %d", x, i)
		}
		lx[i] = math.Log2(x)
	}
	return FitLinear(lx, ys)
}

// FitKLogN fits rounds against k*log2(n): the paper's O(k log n) shape for
// Algorithm 3. All inputs must be positive and of equal length.
func FitKLogN(ks, ns, ys []float64) (LinearFit, error) {
	if len(ks) != len(ns) || len(ns) != len(ys) {
		return LinearFit{}, fmt.Errorf("stats: FitKLogN length mismatch: %d, %d, %d", len(ks), len(ns), len(ys))
	}
	x := make([]float64, len(ks))
	for i := range ks {
		if ks[i] <= 0 || ns[i] <= 0 {
			return LinearFit{}, fmt.Errorf("stats: FitKLogN requires positive inputs at %d", i)
		}
		x[i] = ks[i] * math.Log2(ns[i])
	}
	return FitLinear(x, ys)
}
