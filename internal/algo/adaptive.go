package algo

import (
	"fmt"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// AdaptiveAnt implements the §6 "Improved running time" extension. The paper
// observes that Algorithm 3 pays O(k) because early recruitment probabilities
// sit at count/n ≈ 1/k, and suggests boosting the rate using the round number
// as a proxy for how many competing nests remain.
//
// This implementation uses a saturating boost: the ant recruits with
// probability
//
//	b(r) = count / (count + A(r)),   A(r) = max(n·2^(−⌊t/Tau⌋), n/FloorDiv)
//
// where t counts the ant's recruit phases so far. Early on A ≈ n reproduces
// Algorithm 3's count/n. Every Tau phases the virtual rival A halves, lifting
// the probability toward a constant while keeping it strictly increasing in
// count — the property the paper's Lemma 5.7 argument needs to amplify
// population gaps. The floor n/FloorDiv stops the boost before the
// probability saturates at 1 for every nest, which would erase the
// differential and stall the final duel (a pure Polya urn with equal rates
// has zero drift).
//
// The schedule uses only quantities the paper grants the ants: the round
// number and n.
type AdaptiveAnt struct {
	n      int
	src    *rng.Source
	phase  simplePhase
	active bool

	nest    sim.NestID
	count   int
	quality float64

	recruitPhases int
	tau           int
	floorDiv      float64
}

var _ sim.Agent = (*AdaptiveAnt)(nil)

// NewAdaptiveAnt builds one adaptive ant. tau is the boost-doubling period in
// recruit phases (default 2 if <= 0); floorDiv caps the boost at A = n/floorDiv
// (default 4 if <= 0). The defaults were tuned empirically (see
// `go run ./cmd/hhbench -exp E10`): they make convergence time nearly flat in k at the cost of a ramp-up
// penalty for small k, with the crossover against Algorithm 3 near k ≈ 16.
func NewAdaptiveAnt(n int, src *rng.Source, tau int, floorDiv float64) *AdaptiveAnt {
	if tau <= 0 {
		tau = 2
	}
	if floorDiv <= 0 {
		floorDiv = 4
	}
	return &AdaptiveAnt{n: n, src: src, phase: simpleSearch, active: true, tau: tau, floorDiv: floorDiv}
}

// recruitProbability computes b(r) for the current registers. It delegates to
// the sim package's shared formula — the semantic definition of the batch
// engine's EmitRecruitAdaptive opcode — so the scalar and compiled executions
// agree float for float by construction.
func (a *AdaptiveAnt) recruitProbability() float64 {
	return sim.AdaptiveRecruitProbability(a.n, a.count, a.recruitPhases, a.tau, a.floorDiv)
}

// Act implements sim.Agent.
func (a *AdaptiveAnt) Act(int) sim.Action {
	switch a.phase {
	case simpleSearch:
		return sim.Search()
	case simpleRecruit:
		b := false
		if a.active {
			b = a.src.Bernoulli(a.recruitProbability())
		}
		a.recruitPhases++
		return sim.Recruit(b, a.nest)
	default:
		return sim.Goto(a.nest)
	}
}

// Observe implements sim.Agent.
func (a *AdaptiveAnt) Observe(_ int, out sim.Outcome) {
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
func (a *AdaptiveAnt) Committed() (sim.NestID, bool) {
	return a.nest, a.nest != sim.Home
}

// Adaptive is the core.Algorithm builder for the §6 boosted-rate extension.
// Zero values select the documented defaults.
type Adaptive struct {
	Tau      int
	FloorDiv float64
}

// Name implements core.Algorithm.
func (Adaptive) Name() string { return "adaptive" }

// Build implements core.Algorithm.
func (ad Adaptive) Build(n int, env sim.Environment, src *rng.Source) ([]sim.Agent, error) {
	if n <= 0 {
		return nil, fmt.Errorf("algo: adaptive needs a positive colony, got %d", n)
	}
	if env.K() == 0 {
		return nil, fmt.Errorf("algo: adaptive needs a non-empty environment")
	}
	agents := make([]sim.Agent, n)
	for i := range agents {
		agents[i] = NewAdaptiveAnt(n, src.Split(uint64(i)), ad.Tau, ad.FloorDiv)
	}
	return agents, nil
}
