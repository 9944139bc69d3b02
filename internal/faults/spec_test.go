package faults

import (
	"testing"

	"github.com/gmrl/househunt/internal/algo"
	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// recordingAgent records every round number its Act/Observe see, so tests can
// pin the clock a wrapper presents to its inner agent.
type recordingAgent struct {
	actRounds []int
	obsRounds []int
	decided   bool
	committed bool
	nest      sim.NestID
}

func (r *recordingAgent) Act(round int) sim.Action {
	r.actRounds = append(r.actRounds, round)
	return sim.Search()
}

func (r *recordingAgent) Observe(round int, out sim.Outcome) {
	r.obsRounds = append(r.obsRounds, round)
}

func (r *recordingAgent) Decided() bool { return r.decided }

func (r *recordingAgent) Committed() (sim.NestID, bool) { return r.nest, r.committed }

// TestCrashAntAtFirstRound pins the boundary case of a crash scheduled at
// round 1: the inner agent must never act at all.
func TestCrashAntAtFirstRound(t *testing.T) {
	t.Parallel()
	inner := &recordingAgent{}
	c := crashVictim(inner, 1)
	c.Act(1)
	c.Observe(1, sim.Outcome{Nest: 3})
	if len(inner.actRounds) != 0 || len(inner.obsRounds) != 0 {
		t.Fatalf("inner agent ran before a round-1 crash: acts %v, observes %v",
			inner.actRounds, inner.obsRounds)
	}
	if !c.Faulty() {
		t.Fatal("round-1 crash not faulty")
	}
}

// TestCrashAntAfterCommit pins that a crash erases an existing commitment:
// the corpse keeps walking to its last nest, but the census must not count it
// as committed (core.TakeCensus drops Faulty ants from Total entirely).
func TestCrashAntAfterCommit(t *testing.T) {
	t.Parallel()
	inner := &recordingAgent{committed: true, nest: 2}
	c := crashVictim(inner, 4).agent()
	c.Act(3)
	c.Observe(3, sim.Outcome{Nest: 2, Quality: 1})
	if nest, ok := c.(*recordingAgent); ok {
		t.Fatalf("the wrapper handed back the inner agent unwrapped: %v", nest)
	}
	com := c.(interface {
		Committed() (sim.NestID, bool)
	})
	if nestID, ok := com.Committed(); !ok || nestID != 2 {
		t.Fatalf("pre-crash commitment = (%v, %v), want (2, true)", nestID, ok)
	}
	if act := c.Act(4); act.Kind != sim.ActionGo || act.Nest != 2 { // crash fires
		t.Fatalf("crashed act = %+v, want go(last nest 2)", act)
	}
	if nestID, ok := com.Committed(); ok {
		t.Fatalf("post-crash commitment = (%v, true), want none", nestID)
	}
}

// TestCrashDeciderForwardsVerdict pins the regression fixed alongside the
// fault-lane work: wrapping a DECIDING agent must preserve its decider
// contract until the crash, or the Decided == Total convergence gate can
// never close for algorithms like Algorithm 2.
func TestCrashDeciderForwardsVerdict(t *testing.T) {
	t.Parallel()
	inner := &recordingAgent{decided: true}
	c := crashVictim(inner, 5).agent()
	d, ok := c.(interface{ Decided() bool })
	if !ok {
		t.Fatal("wrapping a deciding agent lost the Decided method")
	}
	if !d.Decided() {
		t.Fatal("pre-crash verdict not forwarded")
	}
	c.Act(5)
	if d.Decided() {
		t.Fatal("post-crash ant still reports decided")
	}

	// A non-deciding inner agent must NOT gain the method.
	plain := crashVictim(algo.NewSimpleAnt(10, rng.New(1).Key(), 0), 5).agent()
	if _, ok := plain.(interface{ Decided() bool }); ok {
		t.Fatal("wrapping a non-deciding agent fabricated a Decided method")
	}
}

// TestSleepDeciderForwardsVerdict is the sleep-side twin of the crash test.
func TestSleepDeciderForwardsVerdict(t *testing.T) {
	t.Parallel()
	inner := &recordingAgent{decided: true}
	s := sleepVictim(inner, 3).agent()
	d, ok := s.(interface{ Decided() bool })
	if !ok {
		t.Fatal("wrapping a deciding agent lost the Decided method")
	}
	if !d.Decided() {
		t.Fatal("verdict not forwarded through the sleep wrapper")
	}
	plain := sleepVictim(algo.NewSimpleAnt(10, rng.New(2).Key(), 0), 3).agent()
	if _, ok := plain.(interface{ Decided() bool }); ok {
		t.Fatal("wrapping a non-deciding agent fabricated a Decided method")
	}
}

// TestSleepAntClockTranslation pins the wrapper's logical-clock contract: the
// inner agent sees round 1 on its first post-wake call and counts up from
// there, exactly as the batch lane wakes a sleeper into the program's initial
// state. Round-keyed agents (OptimalAnt fires its global search at round 1
// only) depend on this.
func TestSleepAntClockTranslation(t *testing.T) {
	t.Parallel()
	inner := &recordingAgent{}
	s := sleepVictim(inner, 4)
	for round := 1; round <= 6; round++ {
		act := s.Act(round)
		if round < 4 {
			if act.Kind != sim.ActionRecruit || act.Active || act.Nest != sim.Home {
				t.Fatalf("round %d: sleeping act = %+v, want recruit(0, home)", round, act)
			}
			if s.status != sim.AntSleeping {
				t.Fatalf("round %d: awake before wake round", round)
			}
		} else if s.status != sim.AntLive {
			t.Fatalf("round %d: not awake at/after wake round", round)
		}
		if s.Faulty() {
			t.Fatalf("round %d: an idle ant counts as faulty", round)
		}
		s.Observe(round, sim.Outcome{Nest: 1})
	}
	wantRounds := []int{1, 2, 3}
	if len(inner.actRounds) != len(wantRounds) {
		t.Fatalf("inner saw %d acts %v, want %v", len(inner.actRounds), inner.actRounds, wantRounds)
	}
	for i, want := range wantRounds {
		if inner.actRounds[i] != want || inner.obsRounds[i] != want {
			t.Fatalf("inner clock = acts %v observes %v, want %v (translated to start at 1)",
				inner.actRounds, inner.obsRounds, wantRounds)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	t.Parallel()
	if err := (Spec{CrashFraction: 0.3, ByzantineFraction: 0.3, SleepFraction: 0.4}).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if err := (Spec{CrashFraction: 0.6, SleepFraction: 0.6}).Validate(); err == nil {
		t.Fatal("over-unity fractions accepted")
	}
	if err := (Spec{SleepFraction: -0.1}).Validate(); err == nil {
		t.Fatal("negative fraction accepted")
	}
}

// TestSpecWrapAgents checks victim counts and disjointness on the scalar
// lowering: without a schedule exactly the victims are wrapped and no round
// hook is carried, with one every ant is wrapped and carries the hook. It
// also checks the disabled-spec fast path.
func TestSpecWrapAgents(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	spec := Spec{
		CrashFraction:     0.2,
		CrashWindow:       10,
		ByzantineFraction: 0.1,
		SleepFraction:     0.15,
		SleepWindow:       12,
		Salt:              3,
	}
	scheduled := spec
	scheduled.NewSchedule = func() Schedule { return &TargetedCrash{} }
	for _, sp := range []Spec{spec, scheduled} {
		agents, err := (algo.Simple{}).Build(100, env, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		bare := append([]sim.Agent(nil), agents...)
		wrapped, err := sp.WrapAgents(77, agents)
		if err != nil {
			t.Fatal(err)
		}
		hasSchedule := sp.NewSchedule != nil
		crashes, byz, sleepers, live := 0, 0, 0, 0
		for i, a := range wrapped {
			w, ok := a.(*schedAnt)
			if !ok {
				if hasSchedule || a != bare[i] {
					t.Fatalf("schedule %v: ant %d is %T, want a wrapped or the bare agent", hasSchedule, i, a)
				}
				continue
			}
			if (w.RoundHook() != nil) != hasSchedule {
				t.Fatalf("schedule %v: ant %d carries round hook %v", hasSchedule, i, w.RoundHook() != nil)
			}
			switch {
			case w.crashAt > 0:
				crashes++
			case w.status == sim.AntByzantine:
				byz++
			case w.status == sim.AntSleeping:
				sleepers++
			default:
				live++
			}
		}
		if crashes != 20 || byz != 10 || sleepers != 15 {
			t.Fatalf("schedule %v: victims: %d crash, %d byzantine, %d asleep; want 20, 10, 15", hasSchedule, crashes, byz, sleepers)
		}
		wantLive := 0
		if hasSchedule {
			wantLive = 100 - 20 - 10 - 15
		}
		if live != wantLive {
			t.Fatalf("schedule %v: %d wrapped non-victims, want %d", hasSchedule, live, wantLive)
		}
	}

	// A disabled spec must return the colony untouched.
	fresh, err := (algo.Simple{}).Build(10, env, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	same, err := Spec{Salt: 9}.WrapAgents(77, fresh)
	if err != nil {
		t.Fatal(err)
	}
	for i := range same {
		if same[i] != fresh[i] {
			t.Fatalf("disabled spec rewrote agent %d", i)
		}
	}

	if _, err := (Spec{CrashFraction: 2}).WrapAgents(77, fresh); err == nil {
		t.Fatal("invalid spec applied")
	}
}
