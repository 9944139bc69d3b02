package algo

import (
	"fmt"

	"github.com/gmrl/househunt/internal/nest"
	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// NoisyAnt implements the §6 "Approximate counting, nest assessment" extension:
// Algorithm 3 driven entirely by perceived values. Every count the ant reads
// passes through a nest.CountEstimator and every quality through a
// nest.Assessor, so the recruitment probability uses the ant's noisy belief
// about its nest's population, and the initial good/bad classification uses a
// noisy assessment thresholded at Threshold.
//
// The paper conjectures Algorithm 3 tolerates unbiased noise at some runtime
// cost; `go run ./cmd/hhbench -exp E12` measures success rate and slowdown
// against the noise level.
type NoisyAnt struct {
	antKey
	n      int
	phase  simplePhase
	active bool

	nest    sim.NestID
	count   int
	quality float64

	counter   nest.CountEstimator
	assessor  nest.Assessor
	threshold float64
	// scratch is the Source the perception hooks draw from, reseeded from
	// the ant's keyed word before every call.
	scratch rng.Source
}

var _ sim.Agent = (*NoisyAnt)(nil)

// NewNoisyAnt builds ant id of an n-ant noisy-perception colony whose draws
// are keyed by key. threshold is the perceived quality above which a nest is
// treated as good.
func NewNoisyAnt(n int, key rng.Key, id int, counter nest.CountEstimator, assessor nest.Assessor, threshold float64) (*NoisyAnt, error) {
	if counter == nil || assessor == nil {
		return nil, fmt.Errorf("algo: noisy ant needs both a counter and an assessor")
	}
	return &NoisyAnt{
		antKey: antKey{key, id}, n: n, phase: simpleSearch, active: true,
		counter: counter, assessor: assessor, threshold: threshold,
	}, nil
}

// Act implements sim.Agent.
func (a *NoisyAnt) Act(round int) sim.Action {
	switch a.phase {
	case simpleSearch:
		return sim.Search()
	case simpleRecruit:
		b := a.active && a.coin(round, rng.DrawRecruit, float64(a.count)/float64(a.n))
		return sim.Recruit(b, a.nest)
	default:
		return sim.Goto(a.nest)
	}
}

// Observe implements sim.Agent. Each hook call draws from scratch reseeded
// by its own keyed word: DrawCount for the count, DrawAssess for the
// quality.
func (a *NoisyAnt) Observe(round int, out sim.Outcome) {
	switch a.phase {
	case simpleSearch:
		a.nest = out.Nest
		a.count = a.counter.Estimate(out.Count, a.n, a.reseed(&a.scratch, round, rng.DrawCount))
		a.quality = a.assessor.Assess(out.Quality, a.reseed(&a.scratch, round, rng.DrawAssess))
		if a.quality <= a.threshold {
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
		a.count = a.counter.Estimate(out.Count, a.n, a.reseed(&a.scratch, round, rng.DrawCount))
		a.phase = simpleRecruit
	}
}

// Committed implements the core.Committer contract.
func (a *NoisyAnt) Committed() (sim.NestID, bool) {
	return a.nest, a.nest != sim.Home
}

// Noisy is the core.Algorithm builder for the approximate-perception
// extension. Nil fields default to exact perception; Threshold defaults to
// 0.5 (the midpoint of the binary qualities).
type Noisy struct {
	Counter   nest.CountEstimator
	Assessor  nest.Assessor
	Threshold float64
}

// Name implements core.Algorithm.
func (no Noisy) Name() string {
	counter, assessor := no.Counter, no.Assessor
	if counter == nil {
		counter = nest.ExactCounter{}
	}
	if assessor == nil {
		assessor = nest.ExactAssessor{}
	}
	return fmt.Sprintf("noisy[%s,%s]", counter.Name(), assessor.Name())
}

// Build implements core.Algorithm.
func (no Noisy) Build(n int, env sim.Environment, src *rng.Source) ([]sim.Agent, error) {
	if n <= 0 {
		return nil, fmt.Errorf("algo: noisy needs a positive colony, got %d", n)
	}
	if env.K() == 0 {
		return nil, fmt.Errorf("algo: noisy needs a non-empty environment")
	}
	counter := no.Counter
	if counter == nil {
		counter = nest.ExactCounter{}
	}
	assessor := no.Assessor
	if assessor == nil {
		assessor = nest.ExactAssessor{}
	}
	threshold := no.Threshold
	if threshold == 0 {
		threshold = 0.5
	}
	agents := make([]sim.Agent, n)
	key := src.Key()
	for i := range agents {
		ant, err := NewNoisyAnt(n, key, i, counter, assessor, threshold)
		if err != nil {
			return nil, err
		}
		agents[i] = ant
	}
	return agents, nil
}
