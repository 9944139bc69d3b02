package rng

import (
	"math"
	"math/bits"
	"testing"
)

// TestKeyedUint64nRejectionPath pins the keyed draw's exact-rejection path
// at n = 2^63 + 1, where Lemire's threshold is 2^63 - 1 and about half of all
// first words are rejected. Every draw must equal a re-implementation of the
// documented construction (reject while the low product is below the
// threshold, re-mixing the counter one keyedRejectStep on), the rejection
// rate must sit within 5 standard deviations of 1/2, and multi-step
// redraws must occur.
func TestKeyedUint64nRejectionPath(t *testing.T) {
	t.Parallel()
	const draws = 20000
	n := uint64(1<<63 + 1)
	thresh := -n % n
	if thresh != 1<<63-1 {
		t.Fatalf("threshold %d, want 2^63-1", thresh)
	}
	key := New(0x72656a).Uint64()
	rejected, multi := 0, 0
	for i := uint64(0); i < draws; i++ {
		x := mix64(key) + (i+1)*splitmixGamma
		hi, lo := bits.Mul64(mix64(x), n)
		steps := 0
		for lo < thresh {
			steps++
			x += keyedRejectStep
			hi, lo = bits.Mul64(mix64(x), n)
		}
		if steps > 0 {
			rejected++
		}
		if steps > 1 {
			multi++
		}
		if got := KeyedUint64n(key, i, 0, n); got != hi {
			t.Fatalf("draw %d: KeyedUint64n %d, construction %d", i, got, hi)
		}
	}
	sd := math.Sqrt(draws * 0.25)
	if math.Abs(float64(rejected)-draws/2) > 5*sd {
		t.Fatalf("%d/%d first words rejected, want about half", rejected, draws)
	}
	if multi == 0 {
		t.Fatal("no draw needed a second redraw")
	}
}
