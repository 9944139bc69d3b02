package algo

import (
	"fmt"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// SpreaderAnt realizes the rumor-spreading process underlying the §3 lower
// bound. The "rumor" is the identity of the unique good nest n_w (Theorem
// 3.2's setting): informed ants recruit for n_w every round — the fastest
// possible positive-feedback strategy the model allows — while ignorant ants
// either wait at home to be recruited or search on their own. An ant becomes
// informed when it reaches n_w by search or capture (the lower bound's two
// information channels).
//
// Measuring the rounds until all n ants are informed exhibits the Ω(log n)
// bound: no house-hunting algorithm can beat this process, because solving
// the problem requires informing every ant of the winner's identity.
type SpreaderAnt struct {
	target   sim.NestID
	informed bool
	searcher bool
}

var _ sim.Agent = (*SpreaderAnt)(nil)

// NewSpreaderAnt builds one spreading-process ant. searcher ants search while
// ignorant; non-searchers wait at home.
func NewSpreaderAnt(target sim.NestID, searcher bool) *SpreaderAnt {
	return &SpreaderAnt{target: target, searcher: searcher}
}

// Act implements sim.Agent.
func (a *SpreaderAnt) Act(int) sim.Action {
	if a.informed {
		return sim.Recruit(true, a.target)
	}
	if a.searcher {
		return sim.Search()
	}
	return sim.Recruit(false, sim.Home)
}

// Observe implements sim.Agent.
func (a *SpreaderAnt) Observe(_ int, out sim.Outcome) {
	if !a.informed && out.Nest == a.target {
		a.informed = true
	}
}

// Informed reports whether the ant knows the winning nest.
func (a *SpreaderAnt) Informed() bool { return a.informed }

// Committed implements the core.Committer contract: informed ants are
// committed to the target, so the runner's convergence detection doubles as
// "all ants informed".
func (a *SpreaderAnt) Committed() (sim.NestID, bool) {
	if !a.informed {
		return sim.Home, false
	}
	return a.target, true
}

// Spreader is the core.Algorithm builder for the lower-bound process.
// Seeds ants (at least 1) search while ignorant and bootstrap the rumor;
// when SearchAll is set every ignorant ant searches, which is the absolute
// best case for spreading speed.
type Spreader struct {
	Seeds     int
	SearchAll bool
}

// Name implements core.Algorithm.
func (s Spreader) Name() string {
	if s.SearchAll {
		return "spreader-searchall"
	}
	return "spreader"
}

// Build implements core.Algorithm.
func (s Spreader) Build(n int, env sim.Environment, src *rng.Source) ([]sim.Agent, error) {
	if n <= 0 {
		return nil, fmt.Errorf("algo: spreader needs a positive colony, got %d", n)
	}
	good := env.GoodNests()
	if len(good) != 1 {
		return nil, fmt.Errorf("algo: the lower-bound process needs exactly one good nest, environment has %d", len(good))
	}
	seeds := s.Seeds
	if seeds <= 0 {
		seeds = 1
	}
	if seeds > n {
		seeds = n
	}
	agents := make([]sim.Agent, n)
	for i := range agents {
		agents[i] = NewSpreaderAnt(good[0], s.SearchAll || i < seeds)
	}
	return agents, nil
}
