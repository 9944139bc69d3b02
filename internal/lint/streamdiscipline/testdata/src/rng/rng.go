// Package rng is a fixture stand-in for the real internal/rng: the
// analyzers identify draw calls by package name, receiver type name, and
// method name only, so this minimal shape is all the tests need.
package rng

type Source struct{ s uint64 }

func (s *Source) Uint64() uint64           { s.s += 0x9e3779b97f4a7c15; return s.s }
func (s *Source) Uint64n(n uint64) uint64  { return s.Uint64() % n }
func (s *Source) Intn(n int) int           { return int(s.Uint64n(uint64(n))) }
func (s *Source) Bernoulli(p float64) bool { return p > 0 && s.Uint64() < 1<<52 }
func (s *Source) Split() Source            { return Source{s: s.s} }
func (s *Source) Reseed(seed uint64)       { s.s = seed }

// KeyedUint64n stands in for the keyed draw: a package function of its
// arguments, consuming no stream.
func KeyedUint64n(key, i, j, n uint64) uint64 { return (key ^ i ^ j) % n }

// Key stands in for the per-ant keyed lattice: AntWord is a pure function
// of its arguments, consuming no stream.
type Key struct{ origin uint64 }

func (k Key) AntWord(ant, round int, d uint64) uint64 {
	return k.origin ^ uint64(ant) ^ uint64(round)<<32 ^ d
}

func (k Key) ReseedAnt(src *Source, ant, round int, d uint64) {
	src.Reseed(k.AntWord(ant, round, d))
}

type Threshold uint64

const ThresholdNever Threshold = 0

func (t Threshold) Draw(src *Source) bool { return src.Uint64()>>11 < uint64(t) }
