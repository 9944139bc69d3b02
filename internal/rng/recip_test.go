package rng

import (
	"math"
	"testing"
)

// oraclePop is the float path the kernels must reproduce bit for bit.
func oraclePop(c, n int) Threshold { return NewThreshold(float64(c) / float64(n)) }

func oracleMul(q float64, c, n int) Threshold {
	return NewThreshold(q * float64(c) / float64(n))
}

// TestRecipThresholdExhaustiveSmall pins Recip.Threshold against the float
// oracle for every count of every small divisor, including the out-of-range
// counts the noisy estimators can report.
func TestRecipThresholdExhaustiveSmall(t *testing.T) {
	for n := 1; n <= 512; n++ {
		r := NewRecip(n)
		for c := -2; c <= n+2; c++ {
			if got, want := r.Threshold(c), oraclePop(c, n); got != want {
				t.Fatalf("Threshold(%d)/%d = %d, float oracle %d", c, n, got, want)
			}
		}
	}
}

// TestRecipThresholdLargeDivisors sweeps boundary and pseudorandom counts for
// divisors straddling the old table ceiling up to the 2⁵³ domain bound.
func TestRecipThresholdLargeDivisors(t *testing.T) {
	divisors := []int{
		1<<16 - 1, 1 << 16, 1<<16 + 1, 1e6, 1e6 + 7, 1<<20 + 3,
		1<<31 - 1, 1 << 31, 1<<40 + 9, 1<<52 + 1, 1<<53 - 1, 1 << 53,
	}
	src := New(0xF1E2)
	for _, n := range divisors {
		r := NewRecip(n)
		cs := []int{0, 1, 2, 3, n / 3, n / 2, n - 2, n - 1, n, n + 1}
		for i := 0; i < 4000; i++ {
			cs = append(cs, int(src.Uint64n(uint64(n)+1)))
		}
		for _, c := range cs {
			if got, want := r.Threshold(c), oraclePop(c, n); got != want {
				t.Fatalf("Threshold(%d)/%d = %d, float oracle %d", c, n, got, want)
			}
		}
	}
}

// TestRecipThresholdMul pins the quality-weighted kernel against the scalar
// expression q·float64(c)/float64(n) over a grid of qualities — environment
// values, exact binary fractions, near-1 and near-0 extremes, ±0 (the
// up-front ThresholdNever) and the IEEE specials that must take the oracle
// fallback — crossed with boundary and random counts, up to 2^53+1, for small
// and large divisors.
func TestRecipThresholdMul(t *testing.T) {
	qs := []float64{
		0, 1, 0.5, 0.25, 0.75, 0.1, 0.3, 0.7, 0.9, 1.0 / 3.0,
		1 - 1e-16, 1e-9, 1e-300, 5e-324, 2.5, 7.0,
		math.Inf(1), math.Inf(-1), math.NaN(), -0.5, math.Copysign(0, -1),
		math.Nextafter(1, 0), math.Nextafter(0, 1) * 1e10,
	}
	divisors := []int{1, 2, 3, 7, 64, 100, 65535, 65536, 65537, 1e6, 1<<31 - 1, 1 << 53}
	src := New(0xBEEF)
	for _, n := range divisors {
		r := NewRecip(n)
		cs := []int{-3, -1, 0, 1, 2, n / 2, n - 1, n, n + 1, 3 * n, 1<<53 + 1}
		for i := 0; i < 600; i++ {
			cs = append(cs, int(src.Uint64n(uint64(n)+1)))
		}
		for _, q := range qs {
			for _, c := range cs {
				got, want := r.ThresholdMul(q, c), oracleMul(q, c, n)
				if got != want {
					t.Fatalf("ThresholdMul(%v, %d)/%d = %d, float oracle %d", q, c, n, got, want)
				}
			}
		}
	}
}

// TestRecipThresholdMulRandomQ drives the product-rounding path with fully
// random mantissas: random q ∈ (0, 1) crossed with random counts must agree
// with the oracle on every divisor tried.
func TestRecipThresholdMulRandomQ(t *testing.T) {
	src := New(0xABCD01)
	divisors := []int{3, 1000, 65537, 1e6, 1<<31 - 1}
	for _, n := range divisors {
		r := NewRecip(n)
		for i := 0; i < 5000; i++ {
			q := src.Float64()
			c := int(src.Uint64n(uint64(n) + 1))
			got, want := r.ThresholdMul(q, c), oracleMul(q, c, n)
			if got != want {
				t.Fatalf("ThresholdMul(%v, %d)/%d = %d, float oracle %d", q, c, n, got, want)
			}
		}
	}
}

// TestRecipDrawEquivalence closes the loop through the stream: a Recip-driven
// draw must consume and decide exactly like Source.Bernoulli on the scalar
// float probability.
func TestRecipDrawEquivalence(t *testing.T) {
	n := 1<<16 + 1
	r := NewRecip(n)
	var a, b Source
	a.Reseed(42)
	b.Reseed(42)
	for i := 0; i < 20000; i++ {
		c := i % (n + 2)
		p := float64(c) / float64(n)
		if got, want := r.Threshold(c).Draw(&a), b.Bernoulli(p); got != want {
			t.Fatalf("draw %d (c=%d): threshold %v, bernoulli %v", i, c, got, want)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("streams desynchronized after equivalent draws")
	}
}

// TestNewRecipDomain pins the constructor's domain guard.
func TestNewRecipDomain(t *testing.T) {
	for _, n := range []int{0, -1, MaxRecipN + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewRecip(%d) did not panic", n)
				}
			}()
			NewRecip(n)
		}()
	}
	if got := NewRecip(MaxRecipN).N(); got != MaxRecipN {
		t.Fatalf("N() = %d", got)
	}
}
