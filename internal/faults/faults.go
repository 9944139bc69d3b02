// Package faults injects crash and Byzantine failures into house-hunting
// colonies, implementing the paper's §6 "Fault tolerance" extension: "a small
// number of ants suffering from crash-faults or even malicious faults should
// not affect the overall populations of recruiting ants and the algorithm's
// performance". EXPERIMENTS.md E13 quantifies that claim.
//
// Faulty ants still occupy the model (every ant must make exactly one call
// per round), so:
//
//   - a crashed ant wanders to its last known nest and stays there — a lost
//     ant that still physically exists and perturbs population counts;
//   - a Byzantine ant searches until it finds a BAD nest and then actively
//     recruits for it forever, trying to lure the colony to a bad home.
//
// Both wrappers implement core.Faulty, excluding them from the convergence
// census: the problem is for the correct ants to co-locate.
package faults

import (
	"fmt"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// committer mirrors core.Committer without importing core (the dependency
// points from core/experiment down into faults's wrapped colonies).
type committer interface {
	Committed() (sim.NestID, bool)
}

// decider mirrors core.Decided without importing core. Fault wrappers forward
// the inner agent's verdict only when the inner agent implements the
// interface: unconditionally implementing it would turn every wrapped colony
// into a "deciding" one and stall core.Census.Converged for algorithms that
// never decide.
type decider interface {
	Decided() bool
}

// CrashAnt wraps an agent and kills it at a scheduled round. Before the
// crash it is transparent. After the crash it repeatedly walks to the last
// candidate nest it knew (or waits passively at home if it never learned
// one) and ignores everything it observes.
type CrashAnt struct {
	inner      sim.Agent
	crashRound int
	crashed    bool
	lastNest   sim.NestID
}

var _ sim.Agent = (*CrashAnt)(nil)

// NewCrashAnt schedules inner to crash at the start of crashRound (1-based).
func NewCrashAnt(inner sim.Agent, crashRound int) (*CrashAnt, error) {
	if inner == nil {
		return nil, fmt.Errorf("faults: nil inner agent")
	}
	if crashRound < 1 {
		return nil, fmt.Errorf("faults: crash round %d must be >= 1", crashRound)
	}
	return &CrashAnt{inner: inner, crashRound: crashRound}, nil
}

// Act implements sim.Agent.
func (c *CrashAnt) Act(round int) sim.Action {
	if !c.crashed && round >= c.crashRound {
		c.crashed = true
	}
	if !c.crashed {
		return c.inner.Act(round)
	}
	if c.lastNest != sim.Home {
		return sim.Goto(c.lastNest)
	}
	return sim.Recruit(false, sim.Home)
}

// Observe implements sim.Agent.
func (c *CrashAnt) Observe(round int, out sim.Outcome) {
	if c.crashed {
		// A dead ant can still be dragged around by recruiters; track where it
		// ends up so its corpse keeps occupying a consistent location, but
		// never wake the inner agent again.
		if out.Nest != sim.Home {
			c.lastNest = out.Nest
		}
		return
	}
	if out.Nest != sim.Home {
		c.lastNest = out.Nest
	}
	c.inner.Observe(round, out)
}

// Faulty implements the core.Faulty contract once the crash has fired.
func (c *CrashAnt) Faulty() bool { return c.crashed }

// Committed delegates to the inner agent before the crash so censuses remain
// meaningful, and reports no commitment afterwards.
func (c *CrashAnt) Committed() (sim.NestID, bool) {
	if c.crashed {
		return sim.Home, false
	}
	if com, ok := c.inner.(committer); ok {
		return com.Committed()
	}
	return sim.Home, false
}

// crashDecider is a CrashAnt over a deciding inner agent: it forwards the
// inner verdict so a not-yet-crashed ant still counts as a decider in
// core.TakeCensus. Without the forwarding, wrapping ANY ant of a deciding
// algorithm (e.g. Algorithm 2) made convergence unreachable: the wrapped ant
// counted toward Total but could never count as decided, so the
// Decided == Total gate never closed. The wrap helpers select this subtype
// exactly when the inner agent decides.
type crashDecider struct{ *CrashAnt }

// Decided forwards the inner agent's verdict until the crash; afterwards the
// ant is Faulty and the census never consults it.
func (c crashDecider) Decided() bool {
	if c.crashed {
		return false
	}
	return c.inner.(decider).Decided()
}

// wrapCrash wraps inner to crash at crashRound, preserving the inner agent's
// decider contract when it has one.
func wrapCrash(inner sim.Agent, crashRound int) (sim.Agent, error) {
	crashed, err := NewCrashAnt(inner, crashRound)
	if err != nil {
		return nil, err
	}
	if _, ok := inner.(decider); ok {
		return crashDecider{crashed}, nil
	}
	return crashed, nil
}

// ByzantineAnt actively works against the colony: it searches until it finds
// a bad nest, then recruits for that nest every round, kidnapping correct
// ants into a site the colony must not choose. If the environment has no bad
// nest it searches forever, which merely removes it from the workforce.
//
// Stream-consumption contract: a ByzantineAnt NEVER draws from its source.
// Its whole policy — search, latch the first bad nest, lure forever — is
// deterministic given its outcomes (the search destinations come from the
// ENGINE's environment stream, like every searcher's). The source parameter
// exists so each adversary owns a private stream should a future strategy
// randomize, but today it stays untouched, and the batch engine's fault lane
// relies on that: it materializes no per-ant stream for Byzantine ants at
// all, which is bit-identical precisely because this contract holds (pinned
// by TestByzantineAntDrawsNothing).
type ByzantineAnt struct {
	src     *rng.Source
	badNest sim.NestID
}

var _ sim.Agent = (*ByzantineAnt)(nil)

// NewByzantineAnt builds a luring adversary.
func NewByzantineAnt(src *rng.Source) *ByzantineAnt {
	return &ByzantineAnt{src: src}
}

// Act implements sim.Agent.
func (b *ByzantineAnt) Act(int) sim.Action {
	if b.badNest == sim.Home {
		return sim.Search()
	}
	return sim.Recruit(true, b.badNest)
}

// Observe implements sim.Agent.
func (b *ByzantineAnt) Observe(_ int, out sim.Outcome) {
	if b.badNest == sim.Home && out.Nest != sim.Home && out.Quality == 0 {
		b.badNest = out.Nest
	}
}

// Faulty implements the core.Faulty contract: Byzantine ants never count
// toward convergence.
func (b *ByzantineAnt) Faulty() bool { return true }
