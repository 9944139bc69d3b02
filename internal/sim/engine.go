package sim

import (
	"errors"
	"fmt"

	"github.com/gmrl/househunt/internal/metrics"
	"github.com/gmrl/househunt/internal/rng"
)

// Engine executes a colony of agents against an environment in synchronous
// rounds, implementing the paper's §2 model exactly (see the package comment
// for the round-resolution discipline).
//
// An Engine is single-use: construct, Step/Run to completion, inspect. After
// any error the engine is poisoned and further Steps return the same error.
// Engines are not safe for concurrent use.
type Engine struct {
	env     Environment
	agents  []Agent
	matcher Matcher

	envSrc   *rng.Source // search destinations
	matchSrc *rng.Source // recruitment pairing

	round  int
	loc    []NestID // location of each ant at the end of the last round
	counts []int    // population per nest (index 0 = home) at end of last round

	visited []bool // flat n×(K+1): ant i has visited nest j (home trivially true)

	actions  []Action
	outcomes []Outcome

	recruiters []int // ant indices recruiting this round
	slotOf     []int // ant index -> recruiter slot this round (-1 otherwise)
	active     []bool
	carries    []int
	anyCarry   bool
	capturedBy []int32
	succeeded  []bool
	captures   []int

	strict bool
	err    error
	hook   RoundHook // end-of-round callback (adaptive fault controller); nil otherwise

	reg *metrics.Registry

	cRounds, cSearch, cGo, cRecruit   *metrics.Counter
	cActive, cSuccess, cSelf, cErrors *metrics.Counter
}

// Option configures an Engine.
type Option func(*engineConfig)

type engineConfig struct {
	seed    uint64
	matcher Matcher
	strict  bool
	reg     *metrics.Registry
}

// WithSeed sets the root seed for environment and matcher randomness.
// Default 1. Agent randomness is owned by the agents themselves.
func WithSeed(seed uint64) Option {
	return func(c *engineConfig) { c.seed = seed }
}

// WithMatcher replaces the recruitment pairing model; the default is the
// paper's Algorithm 1.
func WithMatcher(m Matcher) Option {
	return func(c *engineConfig) { c.matcher = m }
}

// WithStrict toggles protocol validation (the go/recruit visited-nest
// preconditions of §2). Strict is on by default; turning it off removes the
// checks for maximum benchmark throughput.
func WithStrict(strict bool) Option {
	return func(c *engineConfig) { c.strict = strict }
}

// WithMetrics attaches a metrics registry for engine instrumentation.
func WithMetrics(r *metrics.Registry) Option {
	return func(c *engineConfig) { c.reg = r }
}

// New constructs an engine for the given environment and agents. The agent
// slice is captured, not copied: the caller must not mutate it afterwards.
func New(env Environment, agents []Agent, opts ...Option) (*Engine, error) {
	if env.K() == 0 {
		return nil, errors.New("sim: engine needs a non-empty environment")
	}
	if len(agents) == 0 {
		return nil, errors.New("sim: engine needs at least one agent")
	}
	for i, a := range agents {
		if a == nil {
			return nil, fmt.Errorf("sim: agent %d is nil", i)
		}
	}
	cfg := engineConfig{seed: 1, strict: true}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.matcher == nil {
		cfg.matcher = &AlgorithmOneMatcher{}
	}
	if cfg.reg == nil {
		cfg.reg = metrics.NewRegistry()
	}

	n := len(agents)
	k := env.K()
	root := rng.New(cfg.seed)
	e := &Engine{
		env:        env,
		agents:     agents,
		matcher:    cfg.matcher,
		envSrc:     root.Split(0),
		matchSrc:   root.Split(1),
		loc:        make([]NestID, n),
		counts:     make([]int, k+1),
		visited:    make([]bool, n*(k+1)),
		actions:    make([]Action, n),
		outcomes:   make([]Outcome, n),
		recruiters: make([]int, 0, n),
		slotOf:     make([]int, n),
		active:     make([]bool, 0, n),
		carries:    make([]int, 0, n),
		capturedBy: make([]int32, 0, n),
		succeeded:  make([]bool, 0, n),
		captures:   make([]int, 0, n),
		strict:     cfg.strict,
		reg:        cfg.reg,
	}
	e.counts[Home] = n // everyone starts at the home nest
	if sized, ok := e.matcher.(sizedMatcher); ok {
		sized.Reserve(n) // recruiting sets reach colony size; never grow mid-run
	}
	// Install the first round hook the colony carries (the adaptive fault
	// controller wraps every ant, all sharing one hook, so "first" is "the"
	// hook). The scan is construction-time only; unhooked colonies pay one
	// nil check per round.
	for _, a := range agents {
		if rh, ok := a.(RoundHooked); ok {
			e.hook = rh.RoundHook()
			break
		}
	}
	e.cRounds = e.reg.Counter("engine.rounds")
	e.cSearch = e.reg.Counter("engine.actions.search")
	e.cGo = e.reg.Counter("engine.actions.go")
	e.cRecruit = e.reg.Counter("engine.actions.recruit")
	e.cActive = e.reg.Counter("engine.recruit.active")
	e.cSuccess = e.reg.Counter("engine.recruit.success")
	e.cSelf = e.reg.Counter("engine.recruit.selfpair")
	e.cErrors = e.reg.Counter("engine.protocol.violations")
	return e, nil
}

// N returns the colony size.
func (e *Engine) N() int { return len(e.agents) }

// K returns the number of candidate nests.
func (e *Engine) K() int { return e.env.K() }

// Env returns the environment.
func (e *Engine) Env() Environment { return e.env }

// Round returns the index of the last completed round (0 before any Step).
func (e *Engine) Round() int { return e.round }

// Count returns the population of nest i at the end of the last round.
func (e *Engine) Count(i NestID) int {
	if i < 0 || int(i) >= len(e.counts) {
		return 0
	}
	return e.counts[i]
}

// Counts returns a copy of the end-of-round populations, index 0 = home.
func (e *Engine) Counts() []int {
	return append([]int(nil), e.counts...)
}

// Location returns ant a's location at the end of the last round.
func (e *Engine) Location(a int) NestID { return e.loc[a] }

// Visited reports whether ant a has visited (or been recruited to) nest i.
func (e *Engine) Visited(a int, i NestID) bool {
	if i == Home {
		return true
	}
	if i < 0 || int(i) > e.env.K() {
		return false
	}
	return e.visited[a*(e.env.K()+1)+int(i)]
}

// Outcome returns ant a's outcome from the last completed round. It is only
// meaningful after at least one Step.
func (e *Engine) Outcome(a int) Outcome { return e.outcomes[a] }

// ActionTaken returns ant a's action in the last completed round.
func (e *Engine) ActionTaken(a int) Action { return e.actions[a] }

// Metrics returns the engine's metrics registry.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// Err returns the poisoning error, if any.
func (e *Engine) Err() error { return e.err }

// protocolError builds, records and poisons with a protocol violation.
func (e *Engine) protocolError(ant int, format string, args ...any) error {
	e.cErrors.Inc()
	e.err = fmt.Errorf("sim: round %d, ant %d: %s", e.round, ant, fmt.Sprintf(format, args...))
	return e.err
}

// Step executes one synchronous round: collect actions, apply moves, run the
// recruitment matching, compute end-of-round counts, deliver outcomes.
func (e *Engine) Step() error {
	if e.err != nil {
		return e.err
	}
	e.round++
	r := e.round
	for i, a := range e.agents {
		e.actions[i] = a.Act(r)
	}
	if err := e.resolve(); err != nil {
		return err
	}
	for i, a := range e.agents {
		a.Observe(r, e.outcomes[i])
	}
	// End-of-round hook: the adaptive fault controller observes and mutates
	// here — after every observe folded, before the caller's convergence
	// census — matching the batch lane's applySchedule position exactly.
	if e.hook != nil {
		if err := e.hook(e, r); err != nil {
			e.err = err
			return err
		}
	}
	return nil
}

// resolve applies the already-collected actions for round e.round.
func (e *Engine) resolve() error {
	k := e.env.K()
	e.recruiters = e.recruiters[:0]

	// Apply moves and classify.
	for i := range e.agents {
		act := e.actions[i]
		e.slotOf[i] = -1
		switch act.Kind {
		case ActionSearch:
			dest := NestID(e.envSrc.Intn(k) + 1)
			e.loc[i] = dest
			e.visited[i*(k+1)+int(dest)] = true
			// Stash the destination so the outcome phase does not need a
			// second slice; Nest is filled in now, Count later.
			e.outcomes[i] = Outcome{Nest: dest, Quality: e.env.Quality(dest)}
			e.cSearch.Inc()
		case ActionGo:
			if act.Nest <= 0 || int(act.Nest) > k {
				return e.protocolError(i, "go(%d): nest out of range 1..%d", act.Nest, k)
			}
			if e.strict && !e.visited[i*(k+1)+int(act.Nest)] {
				return e.protocolError(i, "go(%d): nest never visited (§2 precondition)", act.Nest)
			}
			e.loc[i] = act.Nest
			e.outcomes[i] = Outcome{Nest: act.Nest, Quality: e.env.Quality(act.Nest)}
			e.cGo.Inc()
		case ActionRecruit:
			if act.Nest < 0 || int(act.Nest) > k {
				return e.protocolError(i, "recruit(%v,%d): nest out of range 0..%d", act.Active, act.Nest, k)
			}
			if act.Active && act.Nest == Home {
				return e.protocolError(i, "recruit(1,0): cannot actively recruit for the home nest")
			}
			if act.Carry < 0 {
				return e.protocolError(i, "recruit: negative carry %d", act.Carry)
			}
			if act.Carry > 1 && !act.Active {
				return e.protocolError(i, "recruit: carry %d requires active recruitment", act.Carry)
			}
			if e.strict && act.Nest != Home && !e.visited[i*(k+1)+int(act.Nest)] {
				return e.protocolError(i, "recruit(%v,%d): nest never visited (§2 precondition)", act.Active, act.Nest)
			}
			e.loc[i] = Home
			e.slotOf[i] = len(e.recruiters)
			e.recruiters = append(e.recruiters, i)
			e.cRecruit.Inc()
			if act.Active {
				e.cActive.Inc()
			}
		default:
			return e.protocolError(i, "invalid action kind %v", act.Kind)
		}
	}

	// Recruitment matching over R.
	nR := len(e.recruiters)
	e.active = e.active[:0]
	e.carries = e.carries[:0]
	e.capturedBy = e.capturedBy[:0]
	e.succeeded = e.succeeded[:0]
	e.captures = e.captures[:0]
	e.anyCarry = false
	for t := 0; t < nR; t++ {
		act := e.actions[e.recruiters[t]]
		e.active = append(e.active, act.Active)
		carry := act.Carry
		if carry < 1 {
			carry = 1
		}
		if carry > 1 {
			e.anyCarry = true
		}
		e.carries = append(e.carries, carry)
		e.capturedBy = append(e.capturedBy, -1)
		e.succeeded = append(e.succeeded, false)
		e.captures = append(e.captures, 0)
	}
	if nR > 0 {
		if e.anyCarry {
			cm, ok := e.matcher.(CarryMatcher)
			if !ok {
				return e.protocolError(e.recruiters[0],
					"transport (carry > 1) unsupported by matcher %q", e.matcher.Name())
			}
			cm.MatchCarry(nR, e.active, e.carries, e.matchSrc, e.capturedBy, e.succeeded)
		} else {
			e.matcher.Match(nR, e.active, e.matchSrc, e.capturedBy, e.succeeded)
		}
		for _, cb := range e.capturedBy {
			if cb >= 0 {
				e.captures[cb]++
			}
		}
	}

	// End-of-round populations.
	for i := range e.counts {
		e.counts[i] = 0
	}
	for _, l := range e.loc {
		e.counts[l]++
	}

	// Outcomes.
	for i := range e.agents {
		switch e.actions[i].Kind {
		case ActionSearch, ActionGo:
			e.outcomes[i].Count = e.counts[e.outcomes[i].Nest]
			e.outcomes[i].Recruited = false
			e.outcomes[i].Succeeded = false
			e.outcomes[i].SelfPaired = false
		case ActionRecruit:
			slot := e.slotOf[i]
			out := Outcome{Nest: e.actions[i].Nest, Count: e.counts[Home], Captures: e.captures[slot]}
			if cb := int(e.capturedBy[slot]); cb >= 0 {
				if cb == slot {
					out.SelfPaired = true
					out.Succeeded = true
					e.cSelf.Inc()
					e.cSuccess.Inc()
				} else {
					capturer := e.recruiters[cb]
					out.Nest = e.actions[capturer].Nest
					out.Recruited = true
					// Being recruited to a nest teaches its location: the
					// tandem run of the biology. This is what licenses the
					// subsequent go(j) calls of both algorithms.
					e.visited[i*(k+1)+int(out.Nest)] = true
				}
			}
			if e.succeeded[slot] && int(e.capturedBy[slot]) != slot {
				out.Succeeded = true
				e.cSuccess.Inc()
			}
			e.outcomes[i] = out
		}
	}

	e.cRounds.Inc()
	return nil
}

// Teach marks nest as visited by ant a, as if the ant had been recruited
// there — the tandem run of the biology, performed out of band. It exists for
// the fault layer: an adaptive adversary relocating a Byzantine lurer to the
// colony's front-runner must license the lurer's subsequent recruit(1, nest)
// calls under strict §2 validation (a real lurer would simply walk there).
// Out-of-range arguments are ignored.
func (e *Engine) Teach(a int, nest NestID) {
	k := e.env.K()
	if a < 0 || a >= len(e.agents) || nest < 1 || int(nest) > k {
		return
	}
	e.visited[a*(k+1)+int(nest)] = true
}

// Run executes rounds until until returns true, maxRounds is reached, or an
// error occurs. It returns the number of the last completed round. The until
// predicate is evaluated after each round with the engine in its end-of-round
// state; a nil predicate runs to maxRounds.
func (e *Engine) Run(maxRounds int, until func(*Engine) bool) (int, error) {
	if maxRounds <= 0 {
		return e.round, fmt.Errorf("sim: Run needs positive maxRounds, got %d", maxRounds)
	}
	for e.round < maxRounds {
		if err := e.Step(); err != nil {
			return e.round, err
		}
		if until != nil && until(e) {
			return e.round, nil
		}
	}
	return e.round, nil
}
