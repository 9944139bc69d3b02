package nest

import (
	"math"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
)

func TestExactAssessor(t *testing.T) {
	t.Parallel()
	src := rng.New(1)
	var a ExactAssessor
	for _, q := range []float64{0, 0.3, 1} {
		if got := a.Assess(q, src); got != q {
			t.Fatalf("ExactAssessor(%v) = %v", q, got)
		}
	}
	if a.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestGaussianAssessorUnbiasedAndClamped(t *testing.T) {
	t.Parallel()
	src := rng.New(2)
	a := GaussianAssessor{Sigma: 0.1}
	const trials = 50000
	var sum float64
	for i := 0; i < trials; i++ {
		v := a.Assess(0.5, src)
		if v < 0 || v > 1 {
			t.Fatalf("assessment %v escaped [0,1]", v)
		}
		sum += v
	}
	mean := sum / trials
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("GaussianAssessor mean %v, want ~0.5 (unbiased away from boundary)", mean)
	}
}

func TestFlipAssessor(t *testing.T) {
	t.Parallel()
	src := rng.New(3)
	a := FlipAssessor{P: 0.25}
	const trials = 40000
	flips := 0
	for i := 0; i < trials; i++ {
		if a.Assess(1, src) == 0 {
			flips++
		}
	}
	freq := float64(flips) / trials
	if math.Abs(freq-0.25) > 0.02 {
		t.Fatalf("flip frequency %v, want ~0.25", freq)
	}
	never := FlipAssessor{P: 0}
	if never.Assess(1, src) != 1 {
		t.Fatal("P=0 flipped")
	}
}

func TestExactCounter(t *testing.T) {
	t.Parallel()
	src := rng.New(4)
	var c ExactCounter
	if c.Estimate(42, 100, src) != 42 {
		t.Fatal("ExactCounter distorted count")
	}
}

func TestRelativeNoiseCounterUnbiased(t *testing.T) {
	t.Parallel()
	src := rng.New(5)
	c := RelativeNoiseCounter{Sigma: 0.2}
	const trials, count = 50000, 200
	var sum float64
	for i := 0; i < trials; i++ {
		v := c.Estimate(count, 1000, src)
		if v < 0 {
			t.Fatalf("negative count estimate %d", v)
		}
		sum += float64(v)
	}
	mean := sum / trials
	if math.Abs(mean-count) > 1.5 {
		t.Fatalf("RelativeNoiseCounter mean %v, want ~%d", mean, count)
	}
}

func TestEncounterRateCounterMonotoneInPopulation(t *testing.T) {
	t.Parallel()
	src := rng.New(6)
	c := EncounterRateCounter{Probes: 256, Volume: 16}
	const trials = 3000
	avg := func(count int) float64 {
		var sum float64
		for i := 0; i < trials; i++ {
			sum += float64(c.Estimate(count, 1000, src))
		}
		return sum / trials
	}
	small, medium, large := avg(4), avg(16), avg(64)
	if !(small < medium && medium < large) {
		t.Fatalf("encounter estimates not monotone: %v, %v, %v", small, medium, large)
	}
	// The inversion should land within ~35%% of truth for mid-range loads.
	if math.Abs(medium-16)/16 > 0.35 {
		t.Fatalf("encounter estimate for 16 ants = %v, want within 35%%", medium)
	}
	if c.Estimate(0, 100, src) != 0 {
		t.Fatal("empty nest estimated non-zero")
	}
}

func TestEncounterRateCounterSaturation(t *testing.T) {
	t.Parallel()
	src := rng.New(7)
	// Tiny volume and huge population: every probe hits; estimator must not
	// divide by zero and must return something large but finite.
	c := EncounterRateCounter{Probes: 8, Volume: 0.001}
	got := c.Estimate(1000000, 1000000, src)
	if got <= 0 {
		t.Fatalf("saturated estimate = %d, want positive", got)
	}
}

// TestCountEstimatesSaturate pins the estimators' readings outside the int
// range, whose plain float-to-int conversion Go leaves to the platform (amd64
// reads MinInt64): a reading beyond MaxInt saturates there, and a NaN one
// reads 0. Relative noise at σ = 1e300 puts every reading of a non-empty nest
// beyond one end or the other; an encounter counter with Volume 1e18 reads a
// population of MaxInt as 1.5e19 whenever 15 or 16 of its 16 probes hit,
// about half the time. Relative noise at σ = +Inf on an empty nest, and an
// encounter counter with an infinite volume, whose probes never hit, both
// compute 0·∞.
func TestCountEstimatesSaturate(t *testing.T) {
	t.Parallel()
	src := rng.New(9)
	cases := []struct {
		name  string
		est   CountEstimator
		count int
		// nan is whether every reading is NaN before rounding, and so 0.
		nan bool
	}{
		{"relative σ=1e300", RelativeNoiseCounter{Sigma: 1e300}, 1000, false},
		{"encounter vol=1e18", EncounterRateCounter{Probes: 16, Volume: 1e18}, math.MaxInt, false},
		{"relative σ=+Inf, empty nest", RelativeNoiseCounter{Sigma: math.Inf(1)}, 0, true},
		{"encounter vol=+Inf", EncounterRateCounter{Probes: 16, Volume: math.Inf(1)}, 1000, true},
	}
	for _, tc := range cases {
		saturated := 0
		for i := 0; i < 64; i++ {
			got := tc.est.Estimate(tc.count, 1000, src)
			if got < 0 || tc.nan && got != 0 {
				t.Fatalf("%s: reading %d", tc.name, got)
			}
			if got == math.MaxInt {
				saturated++
			}
		}
		if !tc.nan && saturated == 0 {
			t.Fatalf("%s: no reading of 64 saturated at MaxInt", tc.name)
		}
	}
}

// TestRoundCountMatchesMathRound pins roundCount to int(math.Round(v)) on
// every positive value inside the int range where rounding is delicate: each
// k+0.5 and the floats on either side of it, the largest float below 0.5,
// both sides of 2^52 where the spacing reaches 1, 2^53, and the floats
// near MaxInt, plus saturation above it and 0 for NaN and non-positive
// readings.
func TestRoundCountMatchesMathRound(t *testing.T) {
	t.Parallel()
	var vs []float64
	for _, k := range []float64{0, 1, 2, 3, 7, 100, 1023, 1 << 20, 1 << 40, 1 << 51} {
		h := k + 0.5
		vs = append(vs, k, h, math.Nextafter(h, 0), math.Nextafter(h, math.Inf(1)))
	}
	vs = append(vs,
		0.49999999999999994, math.SmallestNonzeroFloat64, 0.5, 1.5, 2.5,
		1<<52-0.5, 1<<52, 1<<52+1, 1<<53, 1<<53+2,
		math.Nextafter(math.MaxInt, 0), math.Nextafter(math.Nextafter(math.MaxInt, 0), 0))
	for _, v := range vs {
		if got, want := roundCount(v), int(math.Round(v)); got != want {
			t.Errorf("roundCount(%v) = %d, math.Round gives %d", v, got, want)
		}
	}
	for _, v := range []float64{math.MaxInt, math.Nextafter(math.MaxInt, math.Inf(1)), math.Inf(1)} {
		if got := roundCount(v); got != math.MaxInt {
			t.Errorf("roundCount(%v) = %d, want MaxInt", v, got)
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), -0.5, -1e300, math.Inf(-1), math.NaN()} {
		if got := roundCount(v); got != 0 {
			t.Errorf("roundCount(%v) = %d, want 0", v, got)
		}
	}
}

func TestEncounterRateDefaults(t *testing.T) {
	t.Parallel()
	src := rng.New(8)
	c := EncounterRateCounter{} // zero-value uses defaults
	if got := c.Estimate(10, 100, src); got < 0 {
		t.Fatalf("default-config estimate = %d", got)
	}
	if c.Name() == "" {
		t.Fatal("empty name")
	}
}
