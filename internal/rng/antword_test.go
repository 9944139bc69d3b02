package rng_test

import (
	"testing"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/stats"
)

// antWordFalseAlarm is the pinned family-wise false-alarm rate of
// TestAntWordPairsIndependent's three chi-square tests, split evenly
// (Bonferroni).
const antWordFalseAlarm = 1e-4

// TestAntWordPairsIndependent chi-squares the joint law of the per-ant
// words both engines draw, for the three neighbourhoods the engines read
// together: adjacent ants in one round, one ant in adjacent logical rounds,
// and two draw indices of one (ant, round). Each word is binned by its top
// four bits (the bits a threshold compare and a Lemire reduction read
// first), so a pair falls in one of 256 cells; 200 pairs per cell.
func TestAntWordPairsIndependent(t *testing.T) {
	t.Parallel()
	const bins, perCell = 16, 200
	const trials = bins * bins * perCell
	key := rng.New(0x616e74).Key()
	const round = 37
	pairs := map[string]func(i int) (uint64, uint64){
		"ants": func(i int) (uint64, uint64) {
			return key.AntWord(2*i, round, rng.DrawRecruit), key.AntWord(2*i+1, round, rng.DrawRecruit)
		},
		"rounds": func(i int) (uint64, uint64) {
			return key.AntWord(i, 2*round, rng.DrawRecruit), key.AntWord(i, 2*round+1, rng.DrawRecruit)
		},
		"indices": func(i int) (uint64, uint64) {
			return key.AntWord(i, round, rng.DrawRecruit), key.AntWord(i, round, rng.DrawCount)
		},
	}
	level := antWordFalseAlarm / float64(len(pairs))
	for name, pair := range pairs {
		observed := make([]int, bins*bins)
		for i := 0; i < trials; i++ {
			a, b := pair(i)
			observed[a>>60*bins+b>>60]++
		}
		expected := make([]float64, bins*bins)
		for i := range expected {
			expected[i] = perCell
		}
		if stat, dof, p := stats.ChiSquareGOF(observed, expected, 5); p < level {
			t.Errorf("%s: chi2=%.1f dof=%d p=%.3g below %.3g", name, stat, dof, p, level)
		}
	}
}

// TestAntWordOnKeyedLattice pins the per-ant draws to the lattice of
// KeyedUint64n: AntIntn(ant, round, d, n) is KeyedUint64n(key, ant,
// round·8+d, n), and an AntRow walks exactly AntWord across consecutive
// ants.
func TestAntWordOnKeyedLattice(t *testing.T) {
	t.Parallel()
	raw := rng.New(0x6c6174).Uint64()
	key := rng.New(0x6c6174).Key()
	for _, n := range []int{1, 3, 255, 1<<31 - 1} {
		for ant := 0; ant < 300; ant += 7 {
			for _, round := range []int{0, 1, 2, 1000, 1<<28 - 1} {
				for d := rng.DrawSearch; d <= rng.DrawNEst; d++ {
					want := rng.KeyedUint64n(raw, uint64(ant), uint64(round)*8+uint64(d), uint64(n))
					if got := key.AntIntn(ant, round, d, n); uint64(got) != want {
						t.Fatalf("n=%d ant=%d round=%d d=%d: AntIntn %d, KeyedUint64n %d", n, ant, round, d, got, want)
					}
				}
			}
		}
	}
	for _, lo := range []int{0, 1, 1000} {
		row := key.AntRow(lo, 9, rng.DrawAssess)
		for ant := lo; ant < lo+100; ant++ {
			var w uint64
			w, row = row.Next()
			if want := key.AntWord(ant, 9, rng.DrawAssess); w != want {
				t.Fatalf("row from %d, ant %d: Next %#x, AntWord %#x", lo, ant, w, want)
			}
		}
	}
}

// TestReseededSourceOffKeyedLattice checks that a Source reseeded with a
// key never emits one of that key's keyed words: the matcher seeds its
// shuffle and keys its targets with the same round key, and the lanes
// reseed their hook Sources from keyed words. For several keys it compares
// a Source's first 2^16 words against the key's per-ant words at ants
// below 512, rounds below 16 and every draw index, which include the
// matcher's target words (round 0).
func TestReseededSourceOffKeyedLattice(t *testing.T) {
	t.Parallel()
	for seed := uint64(1); seed <= 4; seed++ {
		raw := rng.New(seed).Uint64()
		key := rng.New(seed).Key()
		src := rng.New(raw)
		stream := make(map[uint64]int, 1<<16)
		for pos := 1; pos <= 1<<16; pos++ {
			stream[src.Uint64()] = pos
		}
		for ant := 0; ant < 512; ant++ {
			for round := 0; round < 16; round++ {
				for d := rng.AntDraw(0); d < 8; d++ {
					if pos, ok := stream[key.AntWord(ant, round, d)]; ok {
						t.Fatalf("key %#x: stream word %d equals the keyed word of ant %d, round %d, index %d", raw, pos, ant, round, d)
					}
				}
			}
		}
	}
}
