package rng

import (
	"math"
	"testing"
)

// assertThresholdEquivalence drives NewThreshold(p).Draw and Source.Bernoulli(p)
// from identical stream positions for `draws` consecutive samples and demands
// bit-identical decisions AND bit-identical stream consumption, and checks
// that Accept on each word of a third stream decides exactly as
// WordFloat64(w) < p — the contracts the batch engine's fixed-point kernels
// rest on. Probabilities at or outside the [0, 1] boundary (and NaN)
// exercise the draw-free sentinels, whose consumption must match
// Bernoulli's exactly too.
func assertThresholdEquivalence(t *testing.T, p float64, seed uint64, draws int) {
	t.Helper()
	thr := NewThreshold(p)
	a := New(seed)
	b := New(seed)
	words := New(^seed)
	for d := 0; d < draws; d++ {
		want := a.Bernoulli(p)
		got := thr.Draw(b)
		if want != got {
			t.Fatalf("p=%v (threshold %d) draw %d: Draw=%v, Bernoulli=%v", p, thr, d, got, want)
		}
		if a.State() != b.State() {
			t.Fatalf("p=%v (threshold %d) draw %d: stream positions diverged (consumption differs)", p, thr, d)
		}
		w := words.Uint64()
		if got, want := thr.Accept(w), WordFloat64(w) < p; got != want {
			t.Fatalf("p=%v (threshold %d) word %#x: Accept=%v, WordFloat64 < p is %v", p, thr, w, got, want)
		}
	}
}

// TestThresholdBoundaryProbabilities covers the sentinel and extreme regions:
// p <= 0, NaN and p >= 1 (draw-free), subnormals, the
// smallest and largest in-(0,1) representables, and values straddling 2⁻⁵³
// where the ceiling in the derivation matters most.
func TestThresholdBoundaryProbabilities(t *testing.T) {
	t.Parallel()
	boundary := []float64{
		0, math.Copysign(0, -1), -1, -1e300, math.Inf(-1),
		1, math.Nextafter(1, 2), 2, 1e300, math.Inf(1),
		math.NaN(),
		5e-324,                      // smallest subnormal
		1e-310,                      // mid subnormal
		math.SmallestNonzeroFloat64, // = 5e-324, spelled via the constant
		0x1p-1074, 0x1p-1022, 0x1p-53, 0x1.0000000000001p-53, 0x1p-52,
		math.Nextafter(1, 0), // largest double below 1: threshold 2⁵³−1
		0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		1.0 / 3, 2.0 / 3, 0.1, 0.9,
	}
	for i, p := range boundary {
		assertThresholdEquivalence(t, p, uint64(1000+i), 4096)
	}
	// Sentinel encodings are exactly the documented values.
	if NewThreshold(0) != ThresholdNever || NewThreshold(-3) != ThresholdNever {
		t.Error("p <= 0 must encode ThresholdNever")
	}
	if NewThreshold(1) != ThresholdAlways || NewThreshold(7) != ThresholdAlways {
		t.Error("p >= 1 must encode ThresholdAlways")
	}
	if got := NewThreshold(math.Nextafter(1, 0)); got != ThresholdAlways-1 {
		t.Errorf("largest p < 1 encodes %d, want 2^53-1", got)
	}
	if got := NewThreshold(5e-324); got != 1 {
		t.Errorf("smallest subnormal encodes %d, want 1", got)
	}
}

// TestThresholdCountRatiosExhaustive is the count-table equivalence: for the
// exact probabilities the batch engine tables — count/n for every count in
// {0..n} — the threshold must reproduce Bernoulli decision-for-decision and
// word-for-word. Small n run the full count range with many draws each;
// n = 1024 (the benchmark point) runs the full range with fewer draws.
func TestThresholdCountRatiosExhaustive(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 3, 5, 17, 64, 255} {
		nF := float64(n)
		for c := 0; c <= n; c++ {
			assertThresholdEquivalence(t, float64(c)/nF, uint64(n*1000+c), 512)
		}
	}
	const n = 1024
	for c := 0; c <= n; c++ {
		assertThresholdEquivalence(t, float64(c)/n, uint64(7_000_000+c), 64)
	}
}

// TestThresholdProgramParamKnobs covers the remaining probabilities the
// compiled programs table: the quality-weighted rate q·c/n over graded
// qualities, the adaptive schedule c/(c+A) over its decay ladder, the quorum
// docility knob over a [0, 1] grid (degenerate endpoints included), and the
// approximate-n rate min(1, c/ñ) that stays on the float kernel but must
// still agree wherever a threshold is built for it.
func TestThresholdProgramParamKnobs(t *testing.T) {
	t.Parallel()
	const n = 96
	nF := float64(n)
	seed := uint64(31)
	for _, q := range []float64{0, 0.05, 1.0 / 3, 0.5, 0.9, 1} {
		for c := 0; c <= n; c += 7 {
			seed++
			assertThresholdEquivalence(t, q*float64(c)/nF, seed, 256)
		}
	}
	for _, decay := range []float64{nF, nF / 2, nF / 4, nF / 8, 1.5, 1} {
		for c := 0; c <= n; c += 5 {
			seed++
			cF := float64(c)
			assertThresholdEquivalence(t, cF/(cF+decay), seed, 256)
		}
	}
	for _, docility := range []float64{0, 0.05, 0.25, 0.5, 0.75, 0.999, 1} {
		seed++
		assertThresholdEquivalence(t, docility, seed, 2048)
	}
	for _, nEst := range []float64{nF * 0.5, nF * 0.77, nF, nF * 1.3} {
		for c := 0; c <= n; c += 11 {
			seed++
			p := float64(c) / nEst
			if p > 1 {
				p = 1
			}
			assertThresholdEquivalence(t, p, seed, 256)
		}
	}
}

// TestThresholdRandomProbabilities sweeps uniformly random probabilities and
// random raw bit patterns (clamped to the float range) for good measure.
func TestThresholdRandomProbabilities(t *testing.T) {
	t.Parallel()
	src := New(2015)
	for i := 0; i < 400; i++ {
		assertThresholdEquivalence(t, src.Float64(), uint64(i)*13+5, 256)
	}
	// Exponent-stratified samples reach tiny probabilities a uniform draw
	// never visits.
	for exp := 1; exp <= 1000; exp += 13 {
		p := math.Ldexp(src.Float64(), -exp)
		assertThresholdEquivalence(t, p, uint64(exp)*17+3, 256)
	}
}

// TestPermVariantsDrawIdentical pins PermInto32 (with its manually fused
// Lemire fast path) to one draw sequence: a reference loop drawing Intn(i+1)
// plays the oracle, and the kernel must consume identical words — including
// the data-dependent rejection redraws — and produce the same permutation.
func TestPermVariantsDrawIdentical(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, 1, 2, 3, 7, 64, 257, 1024} {
		for seed := uint64(1); seed <= 20; seed++ {
			ref := New(seed)
			refPerm := make([]int, n)
			if n > 0 {
				refPerm[0] = 0
				for i := 1; i < n; i++ {
					j := ref.Intn(i + 1)
					refPerm[i] = refPerm[j]
					refPerm[j] = i
				}
			}

			b := New(seed)
			got32 := b.PermInto32(make([]int32, n))

			if b.State() != ref.State() {
				t.Fatalf("n=%d seed=%d: PermInto32 left the stream at a different position than the oracle", n, seed)
			}
			for i := range got32 {
				if int(got32[i]) != refPerm[i] {
					t.Fatalf("n=%d seed=%d index %d: PermInto32=%d oracle=%d", n, seed, i, got32[i], refPerm[i])
				}
			}
		}
	}
}
