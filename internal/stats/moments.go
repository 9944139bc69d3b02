// Package stats is the statistics substrate for the experiment harness. It
// provides numerically stable streaming moments (Welford), order statistics,
// histograms, ordinary-least-squares fits against the paper's predicted
// shapes (log n and k·log n), bootstrap confidence intervals, and binomial
// tail bounds used by the lemma-level statistical tests.
//
// Everything is stdlib-only and deterministic given a caller-provided random
// source (bootstrap resampling takes an explicit *rng.Source).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates streaming mean and variance with Welford's algorithm.
// The zero value is an empty accumulator ready for use.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// AddAll incorporates every observation in xs.
func (w *Welford) AddAll(xs []float64) {
	for _, x := range xs {
		w.Add(x)
	}
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the sample mean, or 0 for an empty accumulator.
func (w *Welford) Mean() float64 { return w.mean }

// Min returns the smallest observation, or 0 for an empty accumulator.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation, or 0 for an empty accumulator.
func (w *Welford) Max() float64 { return w.max }

// Variance returns the unbiased sample variance (n-1 denominator); it is 0
// for fewer than two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// CI95 returns a normal-approximation 95% confidence interval for the mean.
func (w *Welford) CI95() (lo, hi float64) {
	const z = 1.959963984540054
	half := z * w.StdErr()
	return w.mean - half, w.mean + half
}

// String renders "mean ± stderr (n=…)", convenient in table cells and logs.
func (w *Welford) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", w.Mean(), w.StdErr(), w.N())
}

// Summary is a point-in-time snapshot of a sample: moments plus selected
// quantiles. Build one with Summarize.
type Summary struct {
	N              int
	Mean           float64
	StdDev         float64
	StdErr         float64
	Min, Max       float64
	Median         float64
	P05, P25       float64
	P75, P95, P99  float64
	TotalObserved  float64
	SortedSnapshot []float64 // retained only when Summarize keep == true
}

// Summarize computes a Summary of xs. When keep is true the sorted copy of
// the data is retained on the Summary for follow-up quantile queries.
func Summarize(xs []float64, keep bool) Summary {
	var s Summary
	s.N = len(xs)
	if len(xs) == 0 {
		return s
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)

	var w Welford
	for _, x := range xs {
		w.Add(x)
		s.TotalObserved += x
	}
	s.Mean = w.Mean()
	s.StdDev = w.StdDev()
	s.StdErr = w.StdErr()
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	s.Median = Quantile(sorted, 0.5)
	s.P05 = Quantile(sorted, 0.05)
	s.P25 = Quantile(sorted, 0.25)
	s.P75 = Quantile(sorted, 0.75)
	s.P95 = Quantile(sorted, 0.95)
	s.P99 = Quantile(sorted, 0.99)
	if keep {
		s.SortedSnapshot = sorted
	}
	return s
}

// MeanCI95 returns the two-sided 95% Student-t confidence interval for the
// mean, Mean ± t(0.975, N-1)·StdErr, which stays honest for the handful of
// replicates a default-scale experiment row averages. Both ends are NaN
// below two observations.
func (s Summary) MeanCI95() (lo, hi float64) {
	if s.N < 2 {
		return math.NaN(), math.NaN()
	}
	half := tQuantile975(s.N-1) * s.StdErr
	return s.Mean - half, s.Mean + half
}

// t975 holds Student's t 0.975-quantiles for 1 to 30 degrees of freedom.
var t975 = [...]float64{
	12.706205, 4.302653, 3.182446, 2.776445, 2.570582,
	2.446912, 2.364624, 2.306004, 2.262157, 2.228139,
	2.200985, 2.178813, 2.160369, 2.144787, 2.131450,
	2.119905, 2.109816, 2.100922, 2.093024, 2.085963,
	2.079614, 2.073873, 2.068658, 2.063899, 2.059539,
	2.055529, 2.051831, 2.048407, 2.045230, 2.042272,
}

// tQuantile975 is Student's t 0.975-quantile for df >= 1 degrees of
// freedom: tabled up to 30, and above that the Cornish-Fisher expansion
// around the normal quantile, whose first omitted term is below 1e-5 there.
func tQuantile975(df int) float64 {
	if df <= len(t975) {
		return t975[df-1]
	}
	const z = 1.959963984540054
	z3, z5, z7 := z*z*z, z*z*z*z*z, z*z*z*z*z*z*z
	v := float64(df)
	return z + (z3+z)/(4*v) + (5*z5+16*z3+3*z)/(96*v*v) + (3*z7+19*z5+17*z3-15*z)/(384*v*v*v)
}

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending-sorted slice
// using linear interpolation between closest ranks. It panics on an empty
// slice: querying a quantile of nothing is a programming error.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean is a convenience over Welford for one-shot use.
func Mean(xs []float64) float64 {
	var w Welford
	w.AddAll(xs)
	return w.Mean()
}

// Variance is a convenience returning the unbiased sample variance of xs.
func Variance(xs []float64) float64 {
	var w Welford
	w.AddAll(xs)
	return w.Variance()
}
