package algo

import (
	"fmt"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// QualityAnt implements the §6 "Non-binary nest qualities" extension: nest
// qualities lie in (0,1] and the recruitment probability becomes
// quality·count/n, folding site assessment into the positive-feedback loop.
// Higher-quality nests recruit proportionally faster, so the colony's urn
// race is biased toward the best site; `go run ./cmd/hhbench -exp E11`
// measures how often the top-quality nest wins and the quality regret when it
// does not.
//
// Ants re-assess quality on every visit (the engine reports the nest's
// quality on go outcomes — the ant is physically present), so an ant
// recruited to an unknown nest prices it correctly from its next visit; until
// then it conservatively recruits at quality 0.
type QualityAnt struct {
	antKey
	n      int
	phase  simplePhase
	active bool

	nest    sim.NestID
	count   int
	quality float64
}

var _ sim.Agent = (*QualityAnt)(nil)

// NewQualityAnt builds ant id of an n-ant quality-weighted colony whose
// draws are keyed by key.
func NewQualityAnt(n int, key rng.Key, id int) *QualityAnt {
	return &QualityAnt{antKey: antKey{key, id}, n: n, phase: simpleSearch, active: true}
}

// Act implements sim.Agent.
func (a *QualityAnt) Act(round int) sim.Action {
	switch a.phase {
	case simpleSearch:
		return sim.Search()
	case simpleRecruit:
		b := a.active && a.coin(round, rng.DrawRecruit, a.quality*float64(a.count)/float64(a.n))
		return sim.Recruit(b, a.nest)
	default:
		return sim.Goto(a.nest)
	}
}

// Observe implements sim.Agent.
func (a *QualityAnt) Observe(_ int, out sim.Outcome) {
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
			a.quality = 0 // unknown until the next visit prices it
		}
		a.phase = simpleAssess
	case simpleAssess:
		a.count = out.Count
		a.quality = out.Quality
		a.phase = simpleRecruit
	}
}

// Committed implements the core.Committer contract.
func (a *QualityAnt) Committed() (sim.NestID, bool) {
	return a.nest, a.nest != sim.Home
}

// QualityAware is the core.Algorithm builder for the non-binary extension.
type QualityAware struct{}

// Name implements core.Algorithm.
func (QualityAware) Name() string { return "quality" }

// Build implements core.Algorithm.
func (QualityAware) Build(n int, env sim.Environment, src *rng.Source) ([]sim.Agent, error) {
	if n <= 0 {
		return nil, fmt.Errorf("algo: quality needs a positive colony, got %d", n)
	}
	if env.K() == 0 {
		return nil, fmt.Errorf("algo: quality needs a non-empty environment")
	}
	agents := make([]sim.Agent, n)
	key := src.Key()
	for i := range agents {
		agents[i] = NewQualityAnt(n, key, i)
	}
	return agents, nil
}
