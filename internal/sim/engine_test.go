package sim

import (
	"strings"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
)

// scriptedAgent replays a fixed list of actions and records outcomes. After
// the script is exhausted it repeats its final action.
type scriptedAgent struct {
	script   []Action
	outcomes []Outcome
}

func (s *scriptedAgent) Act(round int) Action {
	idx := round - 1
	if idx >= len(s.script) {
		idx = len(s.script) - 1
	}
	return s.script[idx]
}

func (s *scriptedAgent) Observe(_ int, out Outcome) {
	s.outcomes = append(s.outcomes, out)
}

func scripted(actions ...Action) *scriptedAgent { return &scriptedAgent{script: actions} }

func agentsOf(ss ...*scriptedAgent) []Agent {
	out := make([]Agent, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

func TestNewEngineValidation(t *testing.T) {
	t.Parallel()
	env := MustEnvironment([]float64{1})
	if _, err := New(Environment{}, agentsOf(scripted(Search()))); err == nil {
		t.Fatal("empty environment accepted")
	}
	if _, err := New(env, nil); err == nil {
		t.Fatal("no agents accepted")
	}
	if _, err := New(env, []Agent{nil}); err == nil {
		t.Fatal("nil agent accepted")
	}
}

func TestInitialState(t *testing.T) {
	t.Parallel()
	env := MustEnvironment([]float64{1, 0})
	e, err := New(env, agentsOf(scripted(Search()), scripted(Search()), scripted(Search())))
	if err != nil {
		t.Fatal(err)
	}
	if e.Round() != 0 || e.N() != 3 || e.K() != 2 {
		t.Fatalf("initial shape wrong: round=%d n=%d k=%d", e.Round(), e.N(), e.K())
	}
	if e.Count(Home) != 3 {
		t.Fatalf("everyone should start at home: %v", e.Counts())
	}
	for a := 0; a < 3; a++ {
		if e.loc[a] != Home {
			t.Fatalf("ant %d not at home initially", a)
		}
		if e.visited[a*3+1] || e.visited[a*3+2] {
			t.Fatal("candidate nests should start unvisited")
		}
	}
}

func TestSearchMovesAndCounts(t *testing.T) {
	t.Parallel()
	env := MustEnvironment([]float64{1, 1, 1, 1})
	const n = 400
	agents := make([]Agent, n)
	for i := range agents {
		agents[i] = scripted(Search())
	}
	e, err := New(env, agents, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	counts := e.Counts()
	total := 0
	for i, c := range counts {
		if i == 0 && c != 0 {
			t.Fatalf("home should be empty after universal search: %v", counts)
		}
		total += c
	}
	if total != n {
		t.Fatalf("population not conserved: %v", counts)
	}
	// Roughly uniform: each nest should have ~100 ants.
	for i := 1; i <= 4; i++ {
		if counts[i] < 50 || counts[i] > 150 {
			t.Fatalf("search distribution suspicious: %v", counts)
		}
	}
	// Outcomes must carry the nest id, its quality, and the END-of-round count.
	for a := 0; a < n; a++ {
		out := e.Outcome(a)
		if out.Nest < 1 || int(out.Nest) > 4 {
			t.Fatalf("ant %d searched to invalid nest %d", a, out.Nest)
		}
		if out.Quality != 1 {
			t.Fatalf("ant %d search quality = %v", a, out.Quality)
		}
		if out.Count != counts[out.Nest] {
			t.Fatalf("ant %d search count %d != end-of-round %d", a, out.Count, counts[out.Nest])
		}
		if !e.visited[a*(e.K()+1)+int(out.Nest)] {
			t.Fatalf("ant %d did not mark searched nest visited", a)
		}
	}
}

func TestGoRequiresVisit(t *testing.T) {
	t.Parallel()
	env := MustEnvironment([]float64{1, 1})
	e, err := New(env, agentsOf(scripted(Goto(1))))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err == nil {
		t.Fatal("go to unvisited nest accepted")
	}
	if e.Err() == nil {
		t.Fatal("engine not poisoned after protocol violation")
	}
	if err := e.Step(); err == nil {
		t.Fatal("poisoned engine accepted another step")
	}
}

func TestGoOutOfRangeAlwaysRejected(t *testing.T) {
	t.Parallel()
	env := MustEnvironment([]float64{1})
	for _, nest := range []NestID{0, -1, 2} {
		e, err := New(env, agentsOf(scripted(Goto(nest))))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Step(); err == nil {
			t.Fatalf("go(%d) accepted", nest)
		}
	}
}

func TestRecruitPreconditions(t *testing.T) {
	t.Parallel()
	env := MustEnvironment([]float64{1, 1})
	// Active recruiting for the home nest is always invalid.
	e, err := New(env, agentsOf(scripted(Recruit(true, Home))))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err == nil {
		t.Fatal("recruit(1, home) accepted")
	}
	// Passive recruit with nest 0 ("waiting, knows nothing") is valid.
	e2, err := New(env, agentsOf(scripted(Recruit(false, Home))))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Step(); err != nil {
		t.Fatalf("recruit(0, home) rejected: %v", err)
	}
	// Recruit for an unvisited candidate nest violates §2.
	e3, err := New(env, agentsOf(scripted(Recruit(true, 1))))
	if err != nil {
		t.Fatal(err)
	}
	if err := e3.Step(); err == nil {
		t.Fatal("recruit(1, unvisited) accepted")
	}
}

func TestRecruitmentTeachesNest(t *testing.T) {
	t.Parallel()
	// Ant 0 searches (finds some nest w), then actively recruits for it every
	// round. Ant 1 stays passive at home. Eventually ant 1 must be captured,
	// learn w, and be licensed to go(w).
	env := MustEnvironment([]float64{1, 1, 1})
	recruiterScript := []Action{Search()}
	passiveScript := []Action{Recruit(false, Home)}
	recruiter := &dynamicAgent{
		act: func(round int, self *dynamicAgent) Action {
			if round == 1 {
				return Search()
			}
			return Recruit(true, self.nest)
		},
	}
	passive := &dynamicAgent{
		act: func(round int, self *dynamicAgent) Action {
			if self.nest != Home {
				return Goto(self.nest) // licensed only if recruitment taught it
			}
			return Recruit(false, Home)
		},
	}
	_ = recruiterScript
	_ = passiveScript
	e, err := New(env, []Agent{recruiter, passive}, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 50 && passive.nest == Home; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if passive.nest == Home {
		t.Fatal("passive ant was never recruited in 50 rounds")
	}
	if passive.nest != recruiter.nest {
		t.Fatalf("recruited ant learned %d, recruiter advertises %d", passive.nest, recruiter.nest)
	}
	// One more step: the passive ant issues go(learned nest); §2 validation must accept it.
	if err := e.Step(); err != nil {
		t.Fatalf("go after recruitment rejected: %v", err)
	}
	if e.loc[1] != passive.nest {
		t.Fatalf("ant 1 at %d, want %d", e.loc[1], passive.nest)
	}
}

// dynamicAgent lets tests express small reactive behaviours. It tracks the
// last learned nest the way the paper's ants track their committed nest.
type dynamicAgent struct {
	act  func(round int, self *dynamicAgent) Action
	nest NestID
	last Outcome
}

func (d *dynamicAgent) Act(round int) Action { return d.act(round, d) }

func (d *dynamicAgent) Observe(_ int, out Outcome) {
	d.last = out
	switch {
	case out.Recruited:
		d.nest = out.Nest
	case d.nest == Home && out.Nest != Home:
		d.nest = out.Nest
	}
}

func TestRecruitOutcomeCounts(t *testing.T) {
	t.Parallel()
	// 4 ants all passive-recruiting: c(0,r) = 4 must be reported to each.
	env := MustEnvironment([]float64{1})
	agents := agentsOf(
		scripted(Recruit(false, Home)), scripted(Recruit(false, Home)),
		scripted(Recruit(false, Home)), scripted(Recruit(false, Home)),
	)
	e, err := New(env, agents)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if e.Count(Home) != 4 {
		t.Fatalf("home count = %d, want 4", e.Count(Home))
	}
	for a := 0; a < 4; a++ {
		out := e.Outcome(a)
		if out.Count != 4 {
			t.Fatalf("ant %d reported home count %d, want 4", a, out.Count)
		}
		if out.Recruited || out.Succeeded {
			t.Fatalf("all-passive round produced recruitment: %+v", out)
		}
		if out.Nest != Home {
			t.Fatalf("passive non-recruited ant's nest echo = %d, want home", out.Nest)
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	t.Parallel()
	build := func() *Engine {
		env := MustEnvironment([]float64{1, 0, 1, 0})
		const n = 64
		agents := make([]Agent, n)
		for i := range agents {
			src := rng.New(1000).Split(uint64(i))
			agents[i] = &randomWalker{src: src}
		}
		e, err := New(env, agents, WithSeed(77))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := build(), build()
	for r := 0; r < 30; r++ {
		if err := a.Step(); err != nil {
			t.Fatal(err)
		}
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
		for i := range a.counts {
			if a.counts[i] != b.counts[i] {
				t.Fatalf("round %d: executions diverged: %v vs %v", r+1, a.Counts(), b.Counts())
			}
		}
	}
}

// randomWalker is a probabilistic agent used by determinism and equivalence
// tests: it searches, then mixes go/recruit choices from its own stream.
type randomWalker struct {
	src  *rng.Source
	nest NestID
}

func (w *randomWalker) Act(round int) Action {
	if round == 1 || w.nest == Home {
		return Search()
	}
	switch w.src.Intn(3) {
	case 0:
		return Goto(w.nest)
	case 1:
		return Recruit(true, w.nest)
	default:
		return Recruit(false, w.nest)
	}
}

func (w *randomWalker) Observe(_ int, out Outcome) {
	if out.Nest != Home {
		w.nest = out.Nest
	}
}

func TestRunUntil(t *testing.T) {
	t.Parallel()
	env := MustEnvironment([]float64{1})
	e, err := New(env, agentsOf(scripted(Search(), Goto(1))))
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := e.Run(100, func(e *Engine) bool { return e.Round() >= 5 })
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 5 {
		t.Fatalf("Run stopped at %d, want 5", rounds)
	}
	if _, err := e.Run(0, nil); err == nil {
		t.Fatal("Run with zero maxRounds accepted")
	}
	rounds, err = e.Run(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 8 {
		t.Fatalf("Run to maxRounds stopped at %d, want 8", rounds)
	}
}

func TestMetricsWiring(t *testing.T) {
	t.Parallel()
	env := MustEnvironment([]float64{1})
	e, err := New(env, agentsOf(scripted(Search(), Recruit(true, 1)), scripted(Search(), Recruit(false, 1))))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap := e.Metrics().String()
	for _, want := range []string{"engine.rounds", "engine.actions.search", "engine.actions.recruit"} {
		if !strings.Contains(snap, want) {
			t.Fatalf("metrics missing %q:\n%s", want, snap)
		}
	}
	if e.Metrics().Counter("engine.rounds").Value() != 4 {
		t.Fatalf("rounds counter = %d", e.Metrics().Counter("engine.rounds").Value())
	}
}

func TestPopulationConservation(t *testing.T) {
	t.Parallel()
	env := MustEnvironment([]float64{1, 0, 1})
	const n = 100
	agents := make([]Agent, n)
	for i := range agents {
		src := rng.New(202).Split(uint64(i))
		agents[i] = &randomWalker{src: src}
	}
	e, err := New(env, agents, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 50; r++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, c := range e.Counts() {
			total += c
		}
		if total != n {
			t.Fatalf("round %d: population %d, want %d", e.Round(), total, n)
		}
	}
}
