package sim

import (
	"testing"
	"testing/quick"

	"github.com/gmrl/househunt/internal/rng"
)

// chaosAgent takes uniformly random legal actions: it remembers every nest it
// has visited and chooses among search, go(visited), recruit(0/1, visited),
// and passive waiting. It exists to drive the engine through arbitrary
// protocol-legal schedules for invariant checking.
type chaosAgent struct {
	src     *rng.Source
	visited []NestID
}

func (c *chaosAgent) Act(int) Action {
	if len(c.visited) == 0 {
		if c.src.Bernoulli(0.5) {
			return Search()
		}
		return Recruit(false, Home)
	}
	nest := c.visited[c.src.Intn(len(c.visited))]
	switch c.src.Intn(4) {
	case 0:
		return Search()
	case 1:
		return Goto(nest)
	case 2:
		return Recruit(true, nest)
	default:
		return Recruit(false, nest)
	}
}

func (c *chaosAgent) Observe(_ int, out Outcome) {
	if out.Nest == Home {
		return
	}
	for _, v := range c.visited {
		if v == out.Nest {
			return
		}
	}
	c.visited = append(c.visited, out.Nest)
}

// TestEngineInvariantsUnderChaos drives random colonies through random legal
// schedules and asserts the §2 model invariants after every round:
//
//  1. population conservation: Σ c(i,r) = n;
//  2. count consistency: every agent's outcome Count equals the engine's
//     end-of-round count of the outcome's reference nest;
//  3. location consistency: recruiters are at home, movers are at their nest;
//  4. capture consistency: a Recruited outcome names a nest some active
//     recruiter advertised this round.
func TestEngineInvariantsUnderChaos(t *testing.T) {
	t.Parallel()
	f := func(seed uint16, nRaw, kRaw uint8) bool {
		n := int(nRaw%60) + 2
		k := int(kRaw%6) + 1
		env, err := Uniform(k, k)
		if err != nil {
			return false
		}
		agents := make([]Agent, n)
		root := rng.New(uint64(seed) + 3)
		for i := range agents {
			agents[i] = &chaosAgent{src: root.Split(uint64(i))}
		}
		e, err := New(env, agents, WithSeed(uint64(seed)))
		if err != nil {
			return false
		}
		for r := 0; r < 24; r++ {
			if err := e.Step(); err != nil {
				t.Logf("protocol error under chaos: %v", err)
				return false
			}
			total := 0
			for _, c := range e.Counts() {
				total += c
			}
			if total != n {
				t.Logf("population leak: %v", e.Counts())
				return false
			}
			advertised := make(map[NestID]bool, k)
			for i := 0; i < n; i++ {
				act := e.ActionTaken(i)
				if act.Kind == ActionRecruit && act.Active {
					advertised[act.Nest] = true
				}
			}
			for i := 0; i < n; i++ {
				act := e.ActionTaken(i)
				out := e.Outcome(i)
				switch act.Kind {
				case ActionSearch, ActionGo:
					if e.loc[i] != out.Nest {
						t.Logf("ant %d moved to %d but outcome says %d", i, e.loc[i], out.Nest)
						return false
					}
					if out.Count != e.Count(out.Nest) {
						t.Logf("ant %d count %d != engine %d", i, out.Count, e.Count(out.Nest))
						return false
					}
				case ActionRecruit:
					if e.loc[i] != Home {
						t.Logf("recruiter %d not at home", i)
						return false
					}
					if out.Count != e.Count(Home) {
						t.Logf("recruiter %d home count %d != %d", i, out.Count, e.Count(Home))
						return false
					}
					if out.Recruited {
						// Note: out.Nest may equal act.Nest when capturer and
						// captured advertise the same nest; that is legal.
						if !advertised[out.Nest] {
							t.Logf("ant %d recruited to unadvertised nest %d", i, out.Nest)
							return false
						}
						if !e.visited[i*(e.K()+1)+int(out.Nest)] {
							t.Logf("recruited ant %d did not learn nest %d", i, out.Nest)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
