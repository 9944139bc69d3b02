// Package core defines the HouseHunting problem of the paper and the runner
// that executes an algorithm against the simulation engine until the problem
// is solved (or a round budget expires).
//
// Problem statement (paper §2): an algorithm solves HouseHunting with k nests
// in T rounds with probability 1−δ if, with that probability, there is a nest
// i with q(i) = 1 such that ℓ(a,r) = i for all ants a and rounds r ≥ T.
//
// Both of the paper's algorithms settle into a commitment rather than a
// literal co-location (committed ants keep shuttling to the home nest to
// recruit stragglers — the paper's §4.2 remark adopts "all ants reached the
// final state / committed to the same unique nest" as termination). The
// runner therefore detects convergence on commitments: every non-faulty ant
// committed to the same good nest.
package core

import (
	"errors"
	"fmt"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// Committer is implemented by agents that expose their committed nest.
// Commitment drives convergence detection.
type Committer interface {
	// Committed returns the nest the ant is committed to and whether it is
	// committed at all.
	Committed() (sim.NestID, bool)
}

// Decided is optionally implemented by agents that distinguish "committed"
// from "irrevocably decided" (Algorithm 2's final state). When every agent
// implements Decided, the runner additionally requires all ants decided.
type Decided interface {
	// Decided reports that the ant has reached its algorithm's terminal state.
	Decided() bool
}

// Faulty is implemented by fault-injection wrappers; faulty ants are excluded
// from the convergence census (a crashed ant cannot relocate).
type Faulty interface {
	// Faulty reports that the ant has been disabled or subverted.
	Faulty() bool
}

// Algorithm builds the agents of a house-hunting colony. Implementations
// live in internal/algo.
type Algorithm interface {
	// Name identifies the algorithm in tables and CLIs.
	Name() string
	// Build returns n agents for the given environment. src is the root
	// randomness for the colony; the compiled algorithms take its first word
	// as the agent key (src.Key()) and key every ant's draws on it. The
	// returned agents must implement Committer.
	Build(n int, env sim.Environment, src *rng.Source) ([]sim.Agent, error)
}

// Census summarizes colony commitment at the end of a round.
type Census struct {
	// Committed[i] counts non-faulty ants committed to nest i (index 0
	// counts uncommitted ants).
	Committed []int
	// Decided counts non-faulty ants whose Decided() is true; -1 when the
	// colony does not expose decisions.
	Decided int
	// Faulty counts excluded ants.
	Faulty int
	// Total is the number of non-faulty ants.
	Total int
}

// TakeCensus inspects the agents and tallies commitments. Agents that do not
// implement Committer are counted as uncommitted.
func TakeCensus(agents []sim.Agent, k int) Census {
	c := Census{Committed: make([]int, k+1), Decided: -1}
	anyDecider := false
	decided := 0
	for _, a := range agents {
		if f, ok := a.(Faulty); ok && f.Faulty() {
			c.Faulty++
			continue
		}
		c.Total++
		nest := sim.Home
		if com, ok := a.(Committer); ok {
			if n, committed := com.Committed(); committed && n >= 1 && int(n) <= k {
				nest = n
			}
		}
		c.Committed[nest]++
		if d, ok := a.(Decided); ok {
			anyDecider = true
			if d.Decided() {
				decided++
			}
		}
	}
	if anyDecider {
		c.Decided = decided
	}
	return c
}

// Winner returns the nest to which every non-faulty ant is committed, if a
// unanimous commitment exists.
func (c Census) Winner() (sim.NestID, bool) {
	if c.Total == 0 {
		return sim.Home, false
	}
	for i := 1; i < len(c.Committed); i++ {
		if c.Committed[i] == c.Total {
			return sim.NestID(i), true
		}
	}
	return sim.Home, false
}

// Converged reports unanimous commitment to a good nest, with all ants
// decided when decisions are exposed.
func (c Census) Converged(env sim.Environment) (sim.NestID, bool) {
	w, ok := c.Winner()
	if !ok || !env.Good(w) {
		return sim.Home, false
	}
	if c.Decided >= 0 && c.Decided != c.Total {
		return sim.Home, false
	}
	return w, true
}

// Sentinel validation errors.
var (
	errNilAlgorithm = errors.New("core: nil algorithm")
	errBadColony    = errors.New("core: colony size must be positive")
)

// wrapBuild annotates algorithm build failures uniformly.
func wrapBuild(name string, err error) error {
	return fmt.Errorf("core: building %s colony: %w", name, err)
}
