package stats

import (
	"fmt"
	"math"

	"github.com/gmrl/househunt/internal/rng"
)

// WilsonInterval returns the Wilson score 95% confidence interval for a
// binomial proportion with successes out of trials. Unlike the normal
// approximation it behaves sanely at the 0 and 1 boundaries, which our
// success-probability experiments regularly hit.
func WilsonInterval(successes, trials int) (lo, hi float64) {
	if trials == 0 {
		return 0, 1
	}
	const z = 1.959963984540054
	n := float64(trials)
	pHat := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (pHat + z2/(2*n)) / denom
	half := z / denom * math.Sqrt(pHat*(1-pHat)/n+z2/(4*n*n))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// BootstrapCI returns a percentile bootstrap confidence interval for the mean
// of xs at the given confidence level (e.g. 0.95), using resamples drawn from
// src. It returns an error on empty input or an out-of-range level.
func BootstrapCI(xs []float64, level float64, resamples int, src *rng.Source) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("stats: BootstrapCI of empty sample")
	}
	if level <= 0 || level >= 1 {
		return 0, 0, fmt.Errorf("stats: BootstrapCI level %v out of (0,1)", level)
	}
	if resamples <= 0 {
		resamples = 1000
	}
	means := make([]float64, resamples)
	for r := 0; r < resamples; r++ {
		var sum float64
		for i := 0; i < len(xs); i++ {
			sum += xs[src.Intn(len(xs))]
		}
		means[r] = sum / float64(len(xs))
	}
	sorted := means
	insertionSortFloat64(sorted)
	alpha := (1 - level) / 2
	return Quantile(sorted, alpha), Quantile(sorted, 1-alpha), nil
}

// insertionSortFloat64 sorts in place; resample counts are small (~1e3) and
// nearly sorted inputs are common, so this avoids pulling sort.Slice's
// reflection cost into hot loops.
func insertionSortFloat64(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}
