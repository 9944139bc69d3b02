// Package async perturbs the synchronous execution model toward the paper's
// §6 "Asynchrony" extension. The engine remains round-based (the model's
// environment is inherently synchronous), but wrapped ants no longer advance
// their protocol every round:
//
//   - Jitter holds an ant with probability p each round (a slow ant whose
//     protocol clock drifts behind the colony's),
//   - Plan.MaxDelay also holds each ant for a random prefix of rounds
//     (staggered wake-up after the home nest is destroyed).
//
// During a held round the ant performs a harmless legal call — revisiting its
// committed nest, or waiting passively at home — and its wrapped protocol
// does not observe the round at all. The paper conjectures Algorithm 3
// tolerates this ("as long as the distribution of ants in candidate nests
// stays close to the synchronous distribution") while Algorithm 2 "relies
// heavily on synchrony"; `go run ./cmd/hhbench -exp E14` measures both.
package async

import (
	"fmt"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// committer mirrors core.Committer to avoid an upward dependency.
type committer interface {
	Committed() (sim.NestID, bool)
}

// faulter mirrors core.Faulty so jitter wrappers compose with fault
// injection without hiding the faultiness from the census.
type faulter interface {
	Faulty() bool
}

// Jitter wraps an agent so that each round is independently held with
// probability P. The inner agent runs on its own logical clock: it acts and
// observes only on pass-through rounds, in order, so its protocol state stays
// internally consistent — it just falls behind the colony.
type Jitter struct {
	inner        sim.Agent
	p            float64
	src          *rng.Source
	initialHolds int
	logical      int
	held         bool
}

var _ sim.Agent = (*Jitter)(nil)

// NewJitter wraps inner with per-round hold probability p drawn from src.
func NewJitter(inner sim.Agent, p float64, src *rng.Source) (*Jitter, error) {
	if inner == nil {
		return nil, fmt.Errorf("async: nil inner agent")
	}
	if p < 0 || p >= 1 {
		return nil, fmt.Errorf("async: hold probability %v outside [0,1)", p)
	}
	if src == nil {
		return nil, fmt.Errorf("async: nil random source")
	}
	return &Jitter{inner: inner, p: p, src: src}, nil
}

// holdAction is the harmless legal call for a held round.
func (j *Jitter) holdAction() sim.Action {
	if com, ok := j.inner.(committer); ok {
		if nestID, committed := com.Committed(); committed {
			return sim.Goto(nestID)
		}
	}
	return sim.Recruit(false, sim.Home)
}

// Act implements sim.Agent.
func (j *Jitter) Act(int) sim.Action {
	hold := false
	if j.initialHolds > 0 {
		j.initialHolds--
		hold = true
	} else if j.p > 0 && j.src != nil && j.src.Bernoulli(j.p) {
		hold = true
	}
	j.held = hold
	if hold {
		return j.holdAction()
	}
	j.logical++
	return j.inner.Act(j.logical)
}

// Observe implements sim.Agent. Held-round outcomes are invisible to the
// wrapped protocol; in particular a capture during a held passive wait is
// dropped, modeling a tandem run that fails because the follower is absent.
func (j *Jitter) Observe(_ int, out sim.Outcome) {
	if j.held {
		return
	}
	j.inner.Observe(j.logical, out)
}

// Committed delegates to the inner agent for census purposes.
func (j *Jitter) Committed() (sim.NestID, bool) {
	if com, ok := j.inner.(committer); ok {
		return com.Committed()
	}
	return sim.Home, false
}

// Faulty delegates to the inner agent so jitter composes with fault
// injection (a jittered crashed ant is still faulty).
func (j *Jitter) Faulty() bool {
	if f, ok := j.inner.(faulter); ok {
		return f.Faulty()
	}
	return false
}

// Plan wraps a whole colony with independent jitter, for core.RunConfig.Wrap.
// Delay staggers wake-up: ant i is additionally held for a uniform number of
// rounds in [0, MaxDelay].
type Plan struct {
	// HoldP is the per-round hold probability applied to every ant.
	HoldP float64
	// MaxDelay is the maximum staggered wake-up delay in rounds.
	MaxDelay int
}

// Apply returns a colony wrapper implementing the plan with randomness from
// src.
func (p Plan) Apply(src *rng.Source) func([]sim.Agent) ([]sim.Agent, error) {
	return func(agents []sim.Agent) ([]sim.Agent, error) {
		if p.HoldP < 0 || p.HoldP >= 1 {
			return nil, fmt.Errorf("async: hold probability %v outside [0,1)", p.HoldP)
		}
		if p.MaxDelay < 0 {
			return nil, fmt.Errorf("async: negative MaxDelay %d", p.MaxDelay)
		}
		for i, a := range agents {
			j, err := NewJitter(a, p.HoldP, src.Split(uint64(i)))
			if err != nil {
				return nil, err
			}
			if p.MaxDelay > 0 {
				j.initialHolds = src.Intn(p.MaxDelay + 1)
			}
			agents[i] = j
		}
		return agents, nil
	}
}
