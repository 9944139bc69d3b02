package stats

import (
	"fmt"
	"math"
)

// QuantileSketch is a mergeable quantile sketch with a bounded relative
// error, in the DDSketch family: positive observations land in
// logarithmically sized buckets indexed by ⌈log_γ x⌉ with γ = (1+α)/(1-α),
// so any quantile query answers within relative error α of a sample value
// at that rank. Bucket counts are plain integers, which makes Merge an
// exact bucket-wise addition — associative and commutative, so sharded
// sweeps reduce in any order to the same sketch (the property the
// streaming-telemetry collector relies on).
//
// Observations at or below zero are folded into a dedicated zero bucket
// (convergence times are positive, but the sketch stays total). Min and
// max are tracked exactly. The zero value is unusable; construct with
// NewQuantileSketch.
type QuantileSketch struct {
	alpha   float64
	gamma   float64
	lnGamma float64

	// counts[i] holds the population of bucket offset+i; the dense window
	// grows as observations spread. zero counts non-positive observations.
	counts []uint64
	offset int
	zero   uint64
	n      uint64

	min, max float64
}

// NewQuantileSketch returns an empty sketch with relative accuracy alpha
// (0 < alpha < 1). alpha = 0.01 keeps any quantile within 1% of a sample
// value while storing a few hundred buckets for round counts up to 10^6.
func NewQuantileSketch(alpha float64) (*QuantileSketch, error) {
	if !(alpha > 0 && alpha < 1) {
		return nil, fmt.Errorf("stats: sketch accuracy alpha must be in (0,1), got %g", alpha)
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &QuantileSketch{alpha: alpha, gamma: gamma, lnGamma: math.Log(gamma)}, nil
}

// MustQuantileSketch is NewQuantileSketch that panics on error, for
// package-level wiring of known-good accuracies.
func MustQuantileSketch(alpha float64) *QuantileSketch {
	s, err := NewQuantileSketch(alpha)
	if err != nil {
		panic(err)
	}
	return s
}

// Alpha returns the sketch's relative accuracy.
func (s *QuantileSketch) Alpha() float64 { return s.alpha }

// N returns the number of observations.
func (s *QuantileSketch) N() uint64 { return s.n }

// Min returns the smallest observation, or 0 for an empty sketch.
func (s *QuantileSketch) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest observation, or 0 for an empty sketch.
func (s *QuantileSketch) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// index maps a positive observation to its bucket index ⌈log_γ x⌉.
func (s *QuantileSketch) index(x float64) int {
	return int(math.Ceil(math.Log(x) / s.lnGamma))
}

// Add incorporates one observation.
func (s *QuantileSketch) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	if x <= 0 {
		s.zero++
		return
	}
	s.bump(s.index(x), 1)
}

// bump adds count to bucket idx, growing the dense window to cover it.
func (s *QuantileSketch) bump(idx int, count uint64) {
	if len(s.counts) == 0 {
		s.counts = append(s.counts, count)
		s.offset = idx
		return
	}
	if idx < s.offset {
		grown := make([]uint64, len(s.counts)+(s.offset-idx))
		copy(grown[s.offset-idx:], s.counts)
		s.counts = grown
		s.offset = idx
	} else if idx >= s.offset+len(s.counts) {
		grown := make([]uint64, idx-s.offset+1)
		copy(grown, s.counts)
		s.counts = grown
	}
	s.counts[idx-s.offset] += count
}

// Merge folds other into s bucket-wise. Sketches must share the same
// accuracy: bucket boundaries are a function of alpha, so mixing
// accuracies would misassign mass.
func (s *QuantileSketch) Merge(other *QuantileSketch) error {
	if other == nil || other.n == 0 {
		return nil
	}
	if other.alpha != s.alpha {
		return fmt.Errorf("stats: merging sketches with different accuracies (%g vs %g)", s.alpha, other.alpha)
	}
	if s.n == 0 {
		s.min, s.max = other.min, other.max
	} else {
		if other.min < s.min {
			s.min = other.min
		}
		if other.max > s.max {
			s.max = other.max
		}
	}
	s.n += other.n
	s.zero += other.zero
	for i, c := range other.counts {
		if c != 0 {
			s.bump(other.offset+i, c)
		}
	}
	return nil
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) within
// relative error Alpha of a sample value at that rank. Like
// stats.Quantile it panics on an empty sketch: querying a quantile of
// nothing is a programming error.
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.n == 0 {
		panic("stats: Quantile of empty sketch")
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	// The target rank mirrors the closest-rank convention: rank r in
	// [0, n-1], counting through the zero bucket first, then the log
	// buckets in ascending value order.
	rank := uint64(q * float64(s.n-1))
	if rank < s.zero {
		if s.min < 0 {
			return s.min
		}
		return 0
	}
	seen := s.zero
	for i, c := range s.counts {
		seen += c
		if rank < seen {
			// Bucket idx covers (γ^(idx-1), γ^idx]; its midpoint-of-ratio
			// representative 2γ^idx/(γ+1) bounds the relative error by α.
			idx := s.offset + i
			v := 2 * math.Pow(s.gamma, float64(idx)) / (s.gamma + 1)
			// Exact bounds beat the representative at the tails.
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.max
}
