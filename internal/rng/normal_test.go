package rng_test

import (
	"math"
	"sort"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/stats"
)

// normalFalseAlarm is the pinned false-alarm rate of each normal-sampler test
// below: a correct sampler fails it on that fraction of seeds.
const normalFalseAlarm = 1e-4

// tailEdge is the ziggurat's r, beyond which NormFloat64 draws from its tail
// path.
const tailEdge = 3.442619855899

// normalCDF is the standard normal CDF Φ.
func normalCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// TestNormFloat64ChiSquare is Pearson's goodness-of-fit test of 2²² draws
// over 100 equiprobable N(0,1) bins, with the two outer bins split at ±r so
// that the tail path has bins of its own: expected mass 5.76e-4 beyond ±r,
// about 1200 draws on each side.
func TestNormFloat64ChiSquare(t *testing.T) {
	t.Parallel()
	const draws, equi = 1 << 22, 100
	edges := []float64{-tailEdge}
	for i := 1; i < equi; i++ {
		edges = append(edges, math.Sqrt2*math.Erfinv(2*float64(i)/equi-1))
	}
	edges = append(edges, tailEdge)
	// Bin i holds (edges[i-1], edges[i]], with ±∞ past the ends.
	observed := make([]int, len(edges)+1)
	src := rng.New(0x6e6f726d)
	for d := 0; d < draws; d++ {
		observed[sort.SearchFloat64s(edges, src.NormFloat64())]++
	}
	expected := make([]float64, len(observed))
	lo := 0.0
	for i := range expected {
		hi := 1.0
		if i < len(edges) {
			hi = normalCDF(edges[i])
		}
		expected[i] = (hi - lo) * draws
		lo = hi
	}
	stat, dof, p := stats.ChiSquareGOF(observed, expected, 5)
	if dof != len(observed)-1 {
		t.Fatalf("bins were pooled: dof %d, want %d", dof, len(observed)-1)
	}
	if p < normalFalseAlarm {
		t.Fatalf("chi-square %.1f on %d dof, p = %.3g; tail bins hold %d and %d draws, expected %.0f each",
			stat, dof, p, observed[0], observed[len(observed)-1], expected[0])
	}
}

// TestNormFloat64TailKS is a one-sample Kolmogorov–Smirnov test of |x| given
// |x| > r, over 4000 tail draws, against the exact normal tail
// P(|X| ≤ t | |X| > r) = 1 − erfc(t/√2)/erfc(r/√2). Its p-value is the first
// term 2·exp(−2λ²) of Kolmogorov's series, with Stephens' small-sample
// correction of λ; that term bounds the series from above, so the test's
// false-alarm rate is at most normalFalseAlarm.
func TestNormFloat64TailKS(t *testing.T) {
	t.Parallel()
	const want = 4000
	src := rng.New(0x7461696c)
	tail := make([]float64, 0, want)
	for len(tail) < want {
		if x := math.Abs(src.NormFloat64()); x > tailEdge {
			tail = append(tail, x)
		}
	}
	sort.Float64s(tail)
	mass := math.Erfc(tailEdge / math.Sqrt2)
	n := float64(len(tail))
	d := 0.0
	for i, x := range tail {
		f := 1 - math.Erfc(x/math.Sqrt2)/mass
		d = math.Max(d, math.Max(f-float64(i)/n, float64(i+1)/n-f))
	}
	sq := math.Sqrt(n)
	lambda := (sq + 0.12 + 0.11/sq) * d
	if p := 2 * math.Exp(-2*lambda*lambda); p < normalFalseAlarm {
		t.Fatalf("tail KS d = %.4f over %d draws, p ≤ %.3g", d, len(tail), p)
	}
}
