// Package sim implements the synchronous execution model of Ghaffari, Musco,
// Radeva and Lynch, "Distributed House-Hunting in Ant Colonies" (PODC 2015),
// Section 2.
//
// The environment consists of a home nest (nest 0) and k candidate nests
// (1..k) with fixed qualities. A colony of n agents executes in synchronous
// rounds; in each round every agent performs exactly one environment call:
//
//   - search():      move to a uniformly random candidate nest,
//   - go(i):         move to a previously visited candidate nest i,
//   - recruit(b, i): move to the home nest and participate in the randomized
//     recruitment pairing of the paper's Algorithm 1 (b=1 recruits actively
//     for nest i; b=0 waits to be recruited).
//
// All counts returned by the environment are END-of-round populations: the
// engine resolves a round by first collecting every agent's action, then
// applying all moves and the recruitment matching, then computing counts, and
// only then delivering return values. This matches the paper's definition
// c(i,r) = |{a : ℓ(a,r) = i}|.
package sim

import (
	"fmt"
)

// NestID identifies a nest. Home is 0; candidate nests are 1..K.
type NestID int

// Home is the home nest: the colony's origin and the only place where
// recruitment happens.
const Home NestID = 0

// ActionKind enumerates the three environment calls. The zero value is
// invalid so that a forgotten action is caught by validation.
type ActionKind int

// The three calls of the paper's model.
const (
	// ActionSearch is search(): visit a uniformly random candidate nest.
	ActionSearch ActionKind = iota + 1
	// ActionGo is go(i): revisit a known candidate nest.
	ActionGo
	// ActionRecruit is recruit(b, i): return home and join the pairing.
	ActionRecruit
)

// String names the action kind for error messages and traces.
func (k ActionKind) String() string {
	switch k {
	case ActionSearch:
		return "search"
	case ActionGo:
		return "go"
	case ActionRecruit:
		return "recruit"
	default:
		return fmt.Sprintf("action(%d)", int(k))
	}
}

// Action is one agent's choice for a round: exactly one environment call.
// Use the Search, Goto and Recruit constructors rather than struct literals.
type Action struct {
	// Kind selects which environment call is performed.
	Kind ActionKind
	// Nest is the argument of go(i) or recruit(·, i). For recruit it is the
	// nest the ant advertises; the special value Home (0) is permitted for
	// passive recruitment by ants that know no candidate nest yet.
	Nest NestID
	// Active is recruit's b flag: true recruits actively for Nest.
	Active bool
	// Carry extends recruit for the §6 transport extension: an active
	// recruiter may capture up to Carry ants in one round (values < 1 mean
	// 1, the paper's tandem run). The base model of §2 merges tandem runs
	// and transports, so core algorithms leave this at the default; the
	// quorum-transport extension sets Carry ≈ 3 after quorum, reflecting
	// that direct transport is about three times faster than tandem walking
	// (Pratt 2010, the paper's [21]).
	Carry int
}

// Search returns the search() action.
func Search() Action { return Action{Kind: ActionSearch} }

// Goto returns the go(i) action.
func Goto(i NestID) Action { return Action{Kind: ActionGo, Nest: i} }

// Recruit returns the recruit(b, i) action.
func Recruit(active bool, i NestID) Action {
	return Action{Kind: ActionRecruit, Nest: i, Active: active}
}

// Transport returns an active recruit(1, i) that may carry up to carry ants
// in one round (the §6 transport extension; see Action.Carry).
func Transport(i NestID, carry int) Action {
	return Action{Kind: ActionRecruit, Nest: i, Active: true, Carry: carry}
}

// Outcome is the environment's reply to an agent's action, delivered after
// the round resolves.
//
// The fields Recruited, Succeeded and SelfPaired are instrumentation: the
// paper's ants cannot observe Succeeded or SelfPaired directly (and detect
// Recruited only by comparing Nest to their input). Algorithms must not read
// them; experiments and tests may.
type Outcome struct {
	// Nest is: the discovered nest for search; the visited nest for go; the
	// learned nest j for recruit (the recruiter's nest if this ant was
	// captured, otherwise the ant's own input).
	Nest NestID
	// Quality is the quality of Nest. For recruit outcomes it is 0; the model
	// gives recruiting ants no quality information.
	Quality float64
	// Count is the end-of-round population: c(Nest, r) for search/go, and
	// c(Home, r) for recruit.
	Count int
	// Recruited reports that the ant was captured by another recruiter.
	Recruited bool
	// Captures counts how many ants this recruiter captured this round
	// (0 or 1 in the base model; up to Carry with transports).
	// Instrumentation only.
	Captures int
	// Succeeded reports that this ant actively recruited and captured an ant
	// (possibly itself; see SelfPaired). Instrumentation only.
	Succeeded bool
	// SelfPaired reports that the matcher paired the ant with itself, which
	// the paper permits when an active recruiter draws itself from the pool.
	SelfPaired bool
}

// Agent is an ant: a (typically probabilistic) state machine that performs
// exactly one environment call per round.
//
// Act is called once at the start of round r and must return the agent's
// action. Observe is called once after the round resolves with the action's
// outcome. The engine guarantees Act/Observe alternate, starting with Act at
// round 1, and that both are called exactly once per round.
type Agent interface {
	Act(round int) Action
	Observe(round int, out Outcome)
}

// Environment is the immutable nest landscape: K candidate nests and their
// qualities. The zero value is an empty environment with no candidate nests;
// construct with NewEnvironment.
type Environment struct {
	qualities []float64 // index 1..K; index 0 is the home nest with quality 0
}

// NewEnvironment builds an environment from the candidate nest qualities
// (qualities[0] is nest 1's quality, and so on). Qualities must lie in [0,1];
// the paper's binary setting uses exactly {0,1} and requires at least one
// good nest, which is also enforced here (quality > 0 counts as good).
func NewEnvironment(qualities []float64) (Environment, error) {
	if len(qualities) == 0 {
		return Environment{}, fmt.Errorf("sim: environment needs at least one candidate nest")
	}
	anyGood := false
	qs := make([]float64, len(qualities)+1)
	for i, q := range qualities {
		if !(q >= 0 && q <= 1) { // NaN fails too
			return Environment{}, fmt.Errorf("sim: nest %d quality %v outside [0,1]", i+1, q)
		}
		qs[i+1] = q
		if q > 0 {
			anyGood = true
		}
	}
	if !anyGood {
		return Environment{}, fmt.Errorf("sim: environment must contain at least one good nest (paper §2)")
	}
	return Environment{qualities: qs}, nil
}

// MustEnvironment is NewEnvironment for tests and examples with known-good
// literals; it panics on error.
func MustEnvironment(qualities []float64) Environment {
	env, err := NewEnvironment(qualities)
	if err != nil {
		panic(err)
	}
	return env
}

// Uniform returns an environment of k nests, good of which have quality 1 and
// the rest 0. The good nests are the lowest-numbered ones (nest identity is
// exchangeable under the model's uniform search, so placement is irrelevant).
func Uniform(k, good int) (Environment, error) {
	if k <= 0 || good <= 0 || good > k {
		return Environment{}, fmt.Errorf("sim: invalid uniform environment k=%d good=%d", k, good)
	}
	qs := make([]float64, k)
	for i := 0; i < good; i++ {
		qs[i] = 1
	}
	return NewEnvironment(qs)
}

// K returns the number of candidate nests.
func (e Environment) K() int {
	if len(e.qualities) == 0 {
		return 0
	}
	return len(e.qualities) - 1
}

// Quality returns q(i). The home nest has quality 0. Out-of-range ids report
// quality 0 rather than panicking: the engine validates ids separately.
func (e Environment) Quality(i NestID) float64 {
	if i <= 0 || int(i) >= len(e.qualities) {
		return 0
	}
	return e.qualities[i]
}

// Good reports whether nest i has positive quality (a "good" nest in the
// paper's binary setting; an acceptable one in the §6 non-binary extension).
func (e Environment) Good(i NestID) bool { return e.Quality(i) > 0 }

// GoodNests returns the ids of all good nests in ascending order.
func (e Environment) GoodNests() []NestID {
	var out []NestID
	for i := 1; i <= e.K(); i++ {
		if e.Good(NestID(i)) {
			out = append(out, NestID(i))
		}
	}
	return out
}

// Qualities returns a copy of the candidate qualities indexed 1..K (index 0
// is the home nest's 0).
func (e Environment) Qualities() []float64 {
	return append([]float64(nil), e.qualities...)
}
