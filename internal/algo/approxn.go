package algo

import (
	"fmt"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// ApproxNAnt implements the §6 "ants know only an approximation of n"
// extension: Algorithm 3 where each ant carries its own fixed estimate
// ñ = n·(1 + u), u ~ Uniform(−δ, +δ), and recruits with probability
// min(1, count/ñ).
//
// Underestimating n makes an ant recruit too eagerly; overestimating makes
// it too shy. Because the errors are independent across ants, the colony's
// aggregate recruitment rate per nest stays proportional to its population —
// the property the paper's §5 analysis actually uses — so convergence should
// survive sizable δ. `go run ./cmd/hhbench -exp E19` quantifies the cost.
type ApproxNAnt struct {
	nEst   float64
	src    *rng.Source
	phase  simplePhase
	active bool

	nest    sim.NestID
	count   int
	quality float64
}

var _ sim.Agent = (*ApproxNAnt)(nil)

// NewApproxNAnt builds one ant believing the colony has nEst ants (must be
// positive).
func NewApproxNAnt(nEst float64, src *rng.Source) (*ApproxNAnt, error) {
	if nEst <= 0 {
		return nil, fmt.Errorf("algo: colony-size estimate %v must be positive", nEst)
	}
	return &ApproxNAnt{nEst: nEst, src: src, phase: simpleSearch, active: true}, nil
}

// Act implements sim.Agent.
func (a *ApproxNAnt) Act(int) sim.Action {
	switch a.phase {
	case simpleSearch:
		return sim.Search()
	case simpleRecruit:
		b := false
		if a.active {
			p := float64(a.count) / a.nEst
			if p > 1 {
				p = 1
			}
			b = a.src.Bernoulli(p)
		}
		return sim.Recruit(b, a.nest)
	default:
		return sim.Goto(a.nest)
	}
}

// Observe implements sim.Agent.
func (a *ApproxNAnt) Observe(_ int, out sim.Outcome) {
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
func (a *ApproxNAnt) Committed() (sim.NestID, bool) {
	return a.nest, a.nest != sim.Home
}

// ApproxN is the core.Algorithm builder for the approximate-n extension.
// Delta is the maximum relative error (0 reproduces Algorithm 3 exactly);
// it must lie in [0, 1).
type ApproxN struct {
	Delta float64
}

// Name implements core.Algorithm.
func (a ApproxN) Name() string { return fmt.Sprintf("approxn(δ=%g)", a.Delta) }

// Build implements core.Algorithm.
func (a ApproxN) Build(n int, env sim.Environment, src *rng.Source) ([]sim.Agent, error) {
	if n <= 0 {
		return nil, fmt.Errorf("algo: approxn needs a positive colony, got %d", n)
	}
	if env.K() == 0 {
		return nil, fmt.Errorf("algo: approxn needs a non-empty environment")
	}
	if a.Delta < 0 || a.Delta >= 1 {
		return nil, fmt.Errorf("algo: approxn delta %v outside [0, 1)", a.Delta)
	}
	agents := make([]sim.Agent, n)
	for i := range agents {
		antSrc := src.Split(uint64(i))
		nEst := float64(n)
		if a.Delta > 0 {
			nEst = float64(n) * (1 + (2*antSrc.Float64()-1)*a.Delta)
		}
		ant, err := NewApproxNAnt(nEst, antSrc)
		if err != nil {
			return nil, err
		}
		agents[i] = ant
	}
	return agents, nil
}
