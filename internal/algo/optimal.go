package algo

import (
	"fmt"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// optState is Algorithm 2's state variable (§4: search, active, passive,
// final).
type optState int

const (
	optSearch optState = iota + 1
	optActive
	optPassive
	optFinal
)

// optNone marks "no pending state change" in the phase-boundary latch.
const optNone optState = 0

// String names the state for diagnostics.
func (s optState) String() string {
	switch s {
	case optSearch:
		return "search"
	case optActive:
		return "active"
	case optPassive:
		return "passive"
	case optFinal:
		return "final"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// OptimalAnt is one ant of the paper's Algorithm 2 (§4), the asymptotically
// optimal O(log n) algorithm. Round 1 is the global search round; afterwards
// every non-final ant executes 4-round subroutines in colony-wide lockstep
// (phase position p = (round-2) mod 4, i.e. R1..R4 of the pseudocode), while
// final ants run the 1-round recruit loop.
//
// The implementation is line-faithful to the pseudocode, including:
//
//   - the padding calls whose return values are discarded (lines 13, 18-19,
//     28-29, 35-36, 42),
//   - final ants assigning nest from their recruit return (line 21), and
//   - passive ants finishing their 4-round block after being captured before
//     acting as final (lines 15-19).
//
// One genuine ambiguity exists in the pseudocode's Case 3 (lines 37-42): an
// ant recruited to a new nest never updates its count register, so in its
// next phase it compares the new nest's population against the *old* nest's
// remembered count. Under that literal reading a single unlucky comparison
// turns the recruited ant passive, which shrinks the new nest's measured
// population and can cascade into every competing nest dropping out — after
// which no active or final ants exist and the colony deadlocks, contradicting
// the paper's own Lemma 4.1/4.2 analysis (which models population change
// purely as the recruitment delta Y). We therefore default to the reading
// consistent with the analysis: a Case 3 ant re-baselines count to the count
// it measured at the new nest (count := count_n). The literal reading is kept
// behind Literal for the E17 ablation, which quantifies how often it
// deadlocks (`go run ./cmd/hhbench -exp E17`).
type OptimalAnt struct {
	state   optState
	next    optState // latched at the phase boundary (end of R4)
	pending bool     // passive ant captured at R2, becomes final at boundary

	nest    sim.NestID
	count   int
	quality float64

	nestT  sim.NestID // scratch: recruit result at R1
	countT int        // scratch: population measured at R2
	branch int        // active-case branch (1, 2 or 3) chosen at R2

	literal bool
}

var _ sim.Agent = (*OptimalAnt)(nil)

// NewOptimalAnt builds one Algorithm 2 ant. literal selects the pseudocode's
// literal Case 3 (stale count baseline); false selects the analysis-
// consistent re-baselining.
func NewOptimalAnt(literal bool) *OptimalAnt {
	return &OptimalAnt{state: optSearch, literal: literal}
}

// phasePos maps a global round (>= 2) to the pseudocode's R1..R4 as 0..3.
func phasePos(round int) int { return (round - 2) % 4 }

// Act implements sim.Agent.
func (a *OptimalAnt) Act(round int) sim.Action {
	if round == 1 {
		return sim.Search() // line 7
	}
	if a.state == optFinal {
		return sim.Recruit(true, a.nest) // line 21
	}
	p := phasePos(round)
	if a.state == optPassive {
		switch p {
		case 0:
			return sim.Goto(a.nest) // line 13
		case 1:
			return sim.Recruit(false, a.nest) // line 14
		case 2:
			return sim.Goto(a.nest) // line 18
		default:
			return sim.Goto(a.nest) // line 19
		}
	}
	// active
	switch p {
	case 0:
		return sim.Recruit(true, a.nest) // line 23
	case 1:
		return sim.Goto(a.nestT) // line 24
	case 2:
		switch a.branch {
		case 1:
			return sim.Goto(a.nest) // line 28
		case 2:
			return sim.Recruit(false, a.nest) // line 35
		default:
			return sim.Goto(a.nest) // line 39 (nest already := nest_t)
		}
	default: // p == 3
		switch a.branch {
		case 1:
			return sim.Recruit(false, a.nest) // line 29
		case 2:
			return sim.Goto(a.nest) // line 36
		default:
			return sim.Goto(a.nest) // line 42
		}
	}
}

// Observe implements sim.Agent.
func (a *OptimalAnt) Observe(round int, out sim.Outcome) {
	if round == 1 {
		// lines 7-11
		a.nest = out.Nest
		a.count = out.Count
		a.quality = out.Quality
		if a.quality == 0 {
			a.state = optPassive
		} else {
			a.state = optActive
		}
		return
	}
	if a.state == optFinal {
		a.nest = out.Nest // line 21: ⟨nest, ·⟩ := recruit(1, nest)
		return
	}
	p := phasePos(round)
	if a.state == optPassive {
		switch p {
		case 1:
			// lines 14-17: captured passive ants learn the nest and queue the
			// transition to final for the end of the block.
			if out.Nest != a.nest {
				a.nest = out.Nest
				a.pending = true
			}
		case 3:
			if a.pending {
				a.state = optFinal
				a.pending = false
			}
		}
		return
	}
	// active
	switch p {
	case 0:
		a.nestT = out.Nest // line 23
	case 1:
		a.countT = out.Count // line 24
		switch {
		case a.nestT == a.nest && a.countT >= a.count:
			// Case 1, lines 25-27.
			a.branch = 1
			a.count = a.countT
		case a.nestT == a.nest:
			// Case 2, lines 32-34: the nest's population decreased.
			a.branch = 2
			a.next = optPassive
		default:
			// Case 3, lines 37-38: recruited to another nest.
			a.branch = 3
			a.nest = a.nestT
		}
	case 2:
		if a.branch == 3 {
			// lines 39-41: count_n := go(nest).
			countN := out.Count
			if countN < a.countT {
				a.next = optPassive
			} else if !a.literal {
				// Analysis-consistent re-baseline; the literal pseudocode
				// leaves count at the old nest's value (see type comment).
				a.count = countN
			}
		}
	case 3:
		if a.branch == 1 {
			// lines 29-31: count_h from recruit(0, nest).
			if out.Count == a.count {
				a.next = optFinal
			}
		}
		// Phase boundary: latch the queued state change.
		if a.next != optNone {
			a.state = a.next
			a.next = optNone
		}
	}
}

// Committed implements the core.Committer contract.
func (a *OptimalAnt) Committed() (sim.NestID, bool) {
	return a.nest, a.nest != sim.Home
}

// Decided implements the core.Decided contract: Algorithm 2 terminates when
// every ant reaches the final state (paper §4.2).
func (a *OptimalAnt) Decided() bool { return a.state == optFinal }

// State exposes the ant's Algorithm 2 state for tests and experiments.
func (a *OptimalAnt) State() string { return a.state.String() }

// Optimal is the core.Algorithm builder for Algorithm 2. The zero value uses
// the analysis-consistent Case 3; set Literal for the pseudocode-literal
// variant (ablation E17).
type Optimal struct {
	Literal bool
}

// Name implements core.Algorithm.
func (o Optimal) Name() string {
	if o.Literal {
		return "optimal-literal"
	}
	return "optimal"
}

// Build implements core.Algorithm.
func (o Optimal) Build(n int, env sim.Environment, src *rng.Source) ([]sim.Agent, error) {
	if n <= 0 {
		return nil, fmt.Errorf("algo: optimal needs a positive colony, got %d", n)
	}
	if env.K() == 0 {
		return nil, fmt.Errorf("algo: optimal needs a non-empty environment")
	}
	agents := make([]sim.Agent, n)
	for i := range agents {
		agents[i] = NewOptimalAnt(o.Literal)
	}
	return agents, nil
}
