package rng_test

import (
	"testing"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/stats"
)

// keyedFalseAlarm is the pinned family-wise false-alarm rate of the keyed
// draws' chi-square tests, split evenly (Bonferroni) across the tests of
// each function below.
const keyedFalseAlarm = 1e-4

// TestKeyedUint64nUniform chi-squares KeyedUint64n at n ∈ {2, 3, 1024, 10^6}
// over many streams and the first three draws of each. Above 1024 the values
// are binned into 1000 equal-width bins (10^6 divides evenly).
func TestKeyedUint64nUniform(t *testing.T) {
	t.Parallel()
	ns := []uint64{2, 3, 1024, 1_000_000}
	level := keyedFalseAlarm / float64(len(ns))
	key := rng.New(0x6b6579).Uint64()
	for _, n := range ns {
		bins, width := n, uint64(1)
		if n > 1024 {
			bins, width = 1000, n/1000
		}
		const perBin = 200
		draws := int(bins) * perBin
		observed := make([]int, bins)
		for d := 0; d < draws; d++ {
			v := rng.KeyedUint64n(key, uint64(d/3), uint64(d%3), n)
			if v >= n {
				t.Fatalf("n=%d: draw %d out of range", n, v)
			}
			observed[v/width]++
		}
		expected := make([]float64, bins)
		for i := range expected {
			expected[i] = perBin
		}
		if stat, dof, p := stats.ChiSquareGOF(observed, expected, 5); p < level {
			t.Errorf("n=%d: chi2=%.1f dof=%d p=%.3g below %.3g", n, stat, dof, p, level)
		}
	}
}

// TestKeyedUint64nPairsIndependent chi-squares the joint law of neighbouring
// keyed draws at n = 3: adjacent streams at the same draw, adjacent draws of
// one stream, and one stream under adjacent keys must each be uniform on
// the 9 pairs.
func TestKeyedUint64nPairsIndependent(t *testing.T) {
	t.Parallel()
	const n, trials = 3, 90000
	key := rng.New(0x70616972).Uint64()
	pairs := map[string]func(i uint64) (uint64, uint64){
		"streams": func(i uint64) (uint64, uint64) {
			return rng.KeyedUint64n(key, 2*i, 0, n), rng.KeyedUint64n(key, 2*i+1, 0, n)
		},
		"draws": func(i uint64) (uint64, uint64) {
			return rng.KeyedUint64n(key, i, 0, n), rng.KeyedUint64n(key, i, 1, n)
		},
		"keys": func(i uint64) (uint64, uint64) {
			return rng.KeyedUint64n(key+2*i, 7, 0, n), rng.KeyedUint64n(key+2*i+1, 7, 0, n)
		},
	}
	level := keyedFalseAlarm / float64(len(pairs))
	for name, pair := range pairs {
		observed := make([]int, n*n)
		for i := uint64(0); i < trials; i++ {
			a, b := pair(i)
			observed[a*n+b]++
		}
		expected := make([]float64, n*n)
		for i := range expected {
			expected[i] = trials / (n * n)
		}
		if stat, dof, p := stats.ChiSquareGOF(observed, expected, 5); p < level {
			t.Errorf("%s: chi2=%.1f dof=%d p=%.3g below %.3g", name, stat, dof, p, level)
		}
	}
}

// TestKeyedDraws32MatchesKeyedUint64n pins the batch form to the scalar one:
// same key, same stream, same draw index, same value.
func TestKeyedDraws32MatchesKeyedUint64n(t *testing.T) {
	t.Parallel()
	src := rng.New(3)
	for _, n := range []uint64{1, 2, 5, 1 << 20, 1<<31 - 1} {
		streams := make([]int32, 257)
		for i := range streams {
			streams[i] = int32(src.Uint64n(1 << 31))
		}
		dst := make([]int32, len(streams))
		key := src.Uint64()
		for j := uint64(0); j < 3; j++ {
			rng.KeyedDraws32(dst, key, streams, j, n)
			for i, s := range streams {
				if want := rng.KeyedUint64n(key, uint64(s), j, n); uint64(dst[i]) != want {
					t.Fatalf("n=%d j=%d stream %d: KeyedDraws32 %d, KeyedUint64n %d", n, j, s, dst[i], want)
				}
			}
		}
	}
}

// TestShuffle32 pins Shuffle32 to Source.Shuffle's draw sequence (the same
// permutation and the same stream position) and chi-squares it over the 24
// orders of four elements.
func TestShuffle32(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, 1, 2, 7, 300} {
		for seed := uint64(1); seed <= 10; seed++ {
			a, b := rng.New(seed), rng.New(seed)
			got := make([]int32, n)
			want := make([]int32, n)
			for i := range got {
				got[i] = int32(i)
				want[i] = int32(i)
			}
			a.Shuffle32(got)
			b.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
			if a.State() != b.State() {
				t.Fatalf("n=%d seed=%d: Shuffle32 left the stream elsewhere than Shuffle", n, seed)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d seed=%d: Shuffle32 %v, Shuffle %v", n, seed, got, want)
				}
			}
		}
	}
	const trials = 24 * 500
	src := rng.New(24)
	observed := make([]int, 24)
	xs := make([]int32, 4)
	for trial := 0; trial < trials; trial++ {
		for i := range xs {
			xs[i] = int32(i)
		}
		src.Shuffle32(xs)
		// Lehmer code of the permutation: a bijection onto [0, 24).
		code := 0
		for i := range xs {
			smaller := 0
			for _, v := range xs[i+1:] {
				if v < xs[i] {
					smaller++
				}
			}
			code = code*(len(xs)-i) + smaller
		}
		observed[code]++
	}
	expected := make([]float64, 24)
	for i := range expected {
		expected[i] = trials / 24
	}
	if stat, dof, p := stats.ChiSquareGOF(observed, expected, 5); p < keyedFalseAlarm {
		t.Fatalf("Shuffle32 orders: chi2=%.1f dof=%d p=%.3g", stat, dof, p)
	}
}
