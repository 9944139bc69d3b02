// Package nest models the approximate ways real Temnothorax ants perceive
// candidate nest sites. It provides:
//
//   - noisy quality assessors (unbiased Gaussian noise and binary flips,
//     modeling the paper's remark that individual assessments are imprecise
//     and occasionally irrational [25]),
//   - noisy population estimators, including the encounter-rate mechanism
//     Temnothorax uses for quorum sensing (Pratt 2005, the paper's [22]).
//
// The §6 "approximate counting, nest assessment" extension of the paper is
// built from these pieces: algorithms swap the exact environment values for
// estimator outputs.
package nest

import (
	"fmt"
	"math"

	"github.com/gmrl/househunt/internal/rng"
)

// Assessor produces a (possibly noisy) perceived quality from a true quality.
// Implementations must be unbiased or document their bias; the paper's §6
// resilience claim is about unbiased estimators.
type Assessor interface {
	// Assess returns the perceived quality of a nest with true quality q,
	// drawing any randomness from src.
	Assess(q float64, src *rng.Source) float64
	// Name identifies the assessor in experiment tables.
	Name() string
}

// ExactAssessor returns the true quality unchanged.
type ExactAssessor struct{}

var _ Assessor = ExactAssessor{}

// Assess implements Assessor.
func (ExactAssessor) Assess(q float64, _ *rng.Source) float64 { return q }

// Name implements Assessor.
func (ExactAssessor) Name() string { return "exact" }

// GaussianAssessor adds zero-mean Gaussian noise with the given standard
// deviation, clamping the result to [0,1]. Clamping introduces a small bias
// at the boundaries; experiments quantify its effect.
type GaussianAssessor struct {
	Sigma float64
}

var _ Assessor = GaussianAssessor{}

// Assess implements Assessor.
func (g GaussianAssessor) Assess(q float64, src *rng.Source) float64 {
	v := q + src.NormFloat64()*g.Sigma
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Name implements Assessor.
func (g GaussianAssessor) Name() string { return fmt.Sprintf("gaussian(σ=%g)", g.Sigma) }

// FlipAssessor misjudges a binary nest with probability P: a good nest is
// perceived bad and vice versa. This models the individual irrationality
// observed by Sasaki & Pratt (the paper's [25]).
type FlipAssessor struct {
	P float64
}

var _ Assessor = FlipAssessor{}

// Assess implements Assessor.
func (f FlipAssessor) Assess(q float64, src *rng.Source) float64 {
	if src.Bernoulli(f.P) {
		return 1 - q
	}
	return q
}

// Name implements Assessor.
func (f FlipAssessor) Name() string { return fmt.Sprintf("flip(p=%g)", f.P) }

// CountEstimator produces a (possibly noisy) perceived population from a true
// population.
type CountEstimator interface {
	// Estimate returns the perceived number of ants given the true count and
	// the colony size n.
	Estimate(count, n int, src *rng.Source) int
	// Name identifies the estimator in experiment tables.
	Name() string
}

// ExactCounter reports the true count.
type ExactCounter struct{}

var _ CountEstimator = ExactCounter{}

// Estimate implements CountEstimator.
func (ExactCounter) Estimate(count, _ int, _ *rng.Source) int { return count }

// Name implements CountEstimator.
func (ExactCounter) Name() string { return "exact" }

// RelativeNoiseCounter multiplies the true count by (1 + N(0, Sigma²)),
// rounding to the nearest non-negative integer: an unbiased multiplicative
// error model. Readings beyond the int range saturate at MaxInt.
type RelativeNoiseCounter struct {
	Sigma float64
}

var _ CountEstimator = RelativeNoiseCounter{}

// Estimate implements CountEstimator.
func (r RelativeNoiseCounter) Estimate(count, _ int, src *rng.Source) int {
	return roundCount(float64(count) * (1 + src.NormFloat64()*r.Sigma))
}

// Name implements CountEstimator.
func (r RelativeNoiseCounter) Name() string { return fmt.Sprintf("relative(σ=%g)", r.Sigma) }

// EncounterRateCounter simulates quorum sensing by encounter rate (Pratt
// 2005): the assessing ant spends Probes time-steps in the nest; in each step
// it bumps into another ant with probability count/(count+Volume). The count
// estimate inverts the observed encounter frequency. Volume calibrates how
// crowded the cavity feels; larger volumes mean fewer encounters for the same
// population.
type EncounterRateCounter struct {
	Probes int     // sensing steps per visit; default 32 if <= 0
	Volume float64 // effective cavity volume; default 8 if <= 0
}

var _ CountEstimator = EncounterRateCounter{}

// Estimate implements CountEstimator.
func (e EncounterRateCounter) Estimate(count, _ int, src *rng.Source) int {
	probes := e.Probes
	if probes <= 0 {
		probes = 32
	}
	volume := e.Volume
	if volume <= 0 {
		volume = 8
	}
	if count <= 0 {
		return 0
	}
	pEncounter := float64(count) / (float64(count) + volume)
	hits := src.Binomial(probes, pEncounter)
	if hits == probes {
		// Saturated sensing: every probe hit an ant. The inversion below
		// would divide by zero; report the largest resolvable estimate.
		hits = probes - 1
	}
	fHat := float64(hits) / float64(probes)
	est := volume * fHat / (1 - fHat)
	if hits > 0 && est < 1 {
		// The ant met somebody: the nest cannot be read as empty even when a
		// tiny calibration volume collapses the inverted estimate.
		return 1
	}
	return roundCount(est)
}

// Name implements CountEstimator.
func (e EncounterRateCounter) Name() string {
	return fmt.Sprintf("encounter(probes=%d,vol=%g)", e.Probes, e.Volume)
}

// roundCount rounds a perceived population to the nearest integer, halves
// up, as math.Round does for positive values, saturating: NaN and values at
// or below zero read 0, and values beyond the int range read MaxInt. Go
// leaves the conversion of an out-of-range float to int to the platform.
//
// It rounds with math.Floor and one compare instead of math.Round, which Go
// implements in software: the noisy count hook calls it once per ant per
// reading. v - f is exact (f = 0 below 1, and Sterbenz's lemma above), so
// the compare sees the true fraction; Floor(v+0.5) would not, because the
// sum rounds 0.49999999999999994 up to 1.
func roundCount(v float64) int {
	switch {
	case !(v > 0):
		return 0
	case v >= math.MaxInt:
		return math.MaxInt
	}
	f := math.Floor(v)
	n := int(f)
	if v-f >= 0.5 {
		n++
	}
	return n
}
