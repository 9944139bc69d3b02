// Package algo implements the paper's house-hunting algorithms and the §6
// extensions:
//
//   - Simple: Algorithm 3 — recruit with probability proportional to nest
//     population; O(k log n) rounds w.h.p. (Theorem 5.11).
//   - Optimal: Algorithm 2 — population-trend competition with drop-outs;
//     O(log n) rounds w.h.p. (Theorem 4.3).
//   - Spreader: the rumor-spreading process of the §3 lower bound, used to
//     exhibit the Ω(log n) bound empirically.
//   - Adaptive, QualityAware, Noisy: the §6 extensions (rate boosting,
//     non-binary qualities, approximate counting/assessment).
//
// Every implementation follows the paper's pseudocode line by line; deviations
// required to make the pseudocode executable are called out in the comments
// and measured by the experiment suite (`go run ./cmd/hhbench -exp <id>`).
package algo

import (
	"fmt"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// simplePhase sequences Algorithm 3's internal cycle. The phase is tracked
// per-ant rather than derived from the global round number so that the
// asynchrony extension (held rounds) stretches an ant's cycle without
// corrupting it; under a fully synchronous execution the two formulations
// are identical because every ant advances its phase once per round.
type simplePhase int

const (
	simpleSearch  simplePhase = iota + 1 // round 1: search()
	simpleRecruit                        // even rounds: recruit(b, nest)
	simpleAssess                         // odd rounds: count := go(nest)
)

// SimpleAnt is one ant of the paper's Algorithm 3 (§5):
//
//	state: {active, passive}, initially active
//	⟨nest, count, quality⟩ := search()
//	if quality = 0 then state := passive
//	case active:  b := 1 w.p. count/n, else 0
//	              nest := recruit(b, nest); count := go(nest)
//	case passive: nest_t := recruit(0, nest)
//	              if nest_t ≠ nest then state := active; nest := nest_t
//	              count := go(nest)
type SimpleAnt struct {
	antKey
	n      int
	phase  simplePhase
	active bool

	nest    sim.NestID
	count   int
	quality float64
}

var _ sim.Agent = (*SimpleAnt)(nil)

// NewSimpleAnt builds ant id of an n-ant Algorithm 3 colony whose draws are
// keyed by key.
func NewSimpleAnt(n int, key rng.Key, id int) *SimpleAnt {
	return &SimpleAnt{antKey: antKey{key, id}, n: n, phase: simpleSearch, active: true}
}

// Act implements sim.Agent.
func (a *SimpleAnt) Act(round int) sim.Action {
	switch a.phase {
	case simpleSearch:
		return sim.Search()
	case simpleRecruit:
		b := a.active && a.coin(round, rng.DrawRecruit, float64(a.count)/float64(a.n))
		return sim.Recruit(b, a.nest)
	default: // simpleAssess
		return sim.Goto(a.nest)
	}
}

// Observe implements sim.Agent.
func (a *SimpleAnt) Observe(_ int, out sim.Outcome) {
	switch a.phase {
	case simpleSearch:
		a.nest = out.Nest
		a.count = out.Count
		a.quality = out.Quality
		if a.quality == 0 {
			a.active = false
		}
		a.phase = simpleRecruit
	case simpleRecruit:
		// recruit returns the recruiter's nest when captured, else the input:
		// for active ants this is the unconditional "nest := recruit(b, nest)";
		// for passive ants a change of nest re-activates them.
		if out.Nest != a.nest {
			a.nest = out.Nest
			a.active = true
		}
		a.phase = simpleAssess
	case simpleAssess:
		a.count = out.Count
		a.phase = simpleRecruit
	}
}

// Committed implements the core.Committer contract.
func (a *SimpleAnt) Committed() (sim.NestID, bool) {
	return a.nest, a.nest != sim.Home
}

// Active reports whether the ant is in Algorithm 3's active state
// (instrumentation for tests and experiments).
func (a *SimpleAnt) Active() bool { return a.active }

// Count returns the ant's remembered population of its committed nest.
func (a *SimpleAnt) Count() int { return a.count }

// Simple is the core.Algorithm builder for Algorithm 3.
type Simple struct{}

// Name implements core.Algorithm.
func (Simple) Name() string { return "simple" }

// Build implements core.Algorithm.
func (Simple) Build(n int, env sim.Environment, src *rng.Source) ([]sim.Agent, error) {
	if n <= 0 {
		return nil, fmt.Errorf("algo: simple needs a positive colony, got %d", n)
	}
	if env.K() == 0 {
		return nil, fmt.Errorf("algo: simple needs a non-empty environment")
	}
	agents := make([]sim.Agent, n)
	key := src.Key()
	for i := range agents {
		agents[i] = NewSimpleAnt(n, key, i)
	}
	return agents, nil
}

// antKey names one ant's keyed draws: the colony's agent key (the first
// word of the Source a builder receives) and the ant's index. Every draw an
// agent makes is key.AntWord(id, round, index) for the logical round its Act
// or Observe receives, which is exactly the word a batch lane computes for
// the same ant, so the two engines run identical executions.
type antKey struct {
	key rng.Key
	id  int
}

// coin is true with probability p on the ant's word for draw d of round:
// the recruit coin (DrawRecruit) or Quorum's docility coin (DrawDocility).
func (a antKey) coin(round int, d rng.AntDraw, p float64) bool {
	return rng.WordFloat64(a.key.AntWord(a.id, round, d)) < p
}

// reseed seeds scratch from the ant's word for draw d of round
// (rng.Key.ReseedAnt), so a perception hook's draws are a pure function of
// (ant, round, d) too.
func (a antKey) reseed(scratch *rng.Source, round int, d rng.AntDraw) *rng.Source {
	a.key.ReseedAnt(scratch, a.id, round, d)
	return scratch
}
