// Package workload generates the environment families and parameter grids
// used by the experiment harness: binary landscapes with a controlled number
// of good nests, non-binary quality ladders, and (n, k) sweep grids with
// deterministic per-point seeds.
package workload

import (
	"fmt"
	"hash/fnv"

	"github.com/gmrl/househunt/internal/sim"
)

// Binary returns a k-nest environment with the given number of good
// (quality 1) nests; the rest have quality 0.
func Binary(k, good int) (sim.Environment, error) {
	return sim.Uniform(k, good)
}

// AllGood returns a k-nest environment where every nest is good — the
// hardest setting for symmetry breaking, used by the competition experiments.
func AllGood(k int) (sim.Environment, error) {
	return sim.Uniform(k, k)
}

// SingleGood returns a k-nest environment with exactly one good nest — the
// lower bound's setting and the hardest setting for discovery.
func SingleGood(k int) (sim.Environment, error) {
	return sim.Uniform(k, 1)
}

// QualityLadder returns a k-nest environment with qualities evenly spaced
// from lo up to hi (nest k is the best). It feeds the §6 non-binary
// experiments. Requires 0 < lo <= hi <= 1.
func QualityLadder(k int, lo, hi float64) (sim.Environment, error) {
	if k <= 0 {
		return sim.Environment{}, fmt.Errorf("workload: ladder needs positive k, got %d", k)
	}
	if lo <= 0 || hi > 1 || lo > hi {
		return sim.Environment{}, fmt.Errorf("workload: ladder bounds (%v, %v) invalid", lo, hi)
	}
	qs := make([]float64, k)
	for i := range qs {
		if k == 1 {
			qs[i] = hi
			continue
		}
		qs[i] = lo + (hi-lo)*float64(i)/float64(k-1)
	}
	return sim.NewEnvironment(qs)
}

// Grid is a cartesian (n, k) sweep.
type Grid struct {
	Ns []int
	Ks []int
	// Tag decorrelates seeds between experiments that share grid points.
	Tag string
}

// SeedFor derives a stable 64-bit seed from an experiment tag and up to three
// integer coordinates (e.g. n, k, repetition). Identical inputs always give
// identical seeds; distinct inputs decorrelate through FNV-1a.
func SeedFor(tag string, a, b, c int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(tag))
	var buf [24]byte
	put := func(off int, v int) {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(u >> (8 * i))
		}
	}
	put(0, a)
	put(8, b)
	put(16, c)
	_, _ = h.Write(buf[:])
	seed := h.Sum64()
	if seed == 0 {
		seed = 1 // the RNG rejects nothing, but avoid the degenerate seed anyway
	}
	return seed
}
