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

// TestByzantineAntDrawsNothing pins the stream-consumption contract the batch
// engine's fault lane relies on: a ByzantineAnt NEVER draws from its private
// source. Its policy is deterministic given its outcomes, so the lane can
// skip materializing per-ant streams for Byzantine ants and stay bit-identical
// to the scalar wrapper. If this test fails, the lane needs a per-ant stream
// column for Byzantine ants before the contract can change.
func TestByzantineAntDrawsNothing(t *testing.T) {
	t.Parallel()
	src := rng.New(11).Split(42)
	before := src.State()
	b := NewByzantineAnt(src)
	// Drive the full policy: hunt, reject a good nest, latch a bad one, lure.
	for round := 1; round <= 50; round++ {
		b.Act(round)
		switch round {
		case 1:
			b.Observe(round, sim.Outcome{Nest: 1, Quality: 1})
		case 2:
			b.Observe(round, sim.Outcome{Nest: 2, Quality: 0})
		default:
			b.Observe(round, sim.Outcome{Nest: 2, Quality: 0, Count: round})
		}
	}
	if b.badNest != 2 {
		t.Fatalf("adversary latched nest %d, want the first bad nest 2", b.badNest)
	}
	if after := src.State(); after != before {
		t.Fatalf("ByzantineAnt drew from its source: state %v -> %v", before, after)
	}
}

// TestCrashAntAtFirstRound pins the boundary case of a crash scheduled at
// round 1: the inner agent must never act at all.
func TestCrashAntAtFirstRound(t *testing.T) {
	t.Parallel()
	inner := &recordingAgent{}
	c, err := NewCrashAnt(inner, 1)
	if err != nil {
		t.Fatal(err)
	}
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
	c, err := wrapCrash(inner, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.(sim.Agent).Act(3)
	c.(sim.Agent).Observe(3, sim.Outcome{Nest: 2, Quality: 1})
	if nest, ok := c.(*recordingAgent); ok {
		t.Fatalf("wrapCrash returned the inner agent unwrapped: %v", nest)
	}
	if nestID, ok := c.(interface {
		Committed() (sim.NestID, bool)
	}).Committed(); !ok || nestID != 2 {
		t.Fatalf("pre-crash commitment = (%v, %v), want (2, true)", nestID, ok)
	}
	c.(sim.Agent).Act(4) // crash fires
	if nestID, ok := c.(interface {
		Committed() (sim.NestID, bool)
	}).Committed(); ok {
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
	c, err := wrapCrash(inner, 5)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := c.(interface{ Decided() bool })
	if !ok {
		t.Fatal("wrapping a deciding agent lost the Decided method")
	}
	if !d.Decided() {
		t.Fatal("pre-crash verdict not forwarded")
	}
	c.(sim.Agent).Act(5)
	if d.Decided() {
		t.Fatal("post-crash ant still reports decided")
	}

	// A non-deciding inner agent must NOT gain the method.
	plain, err := wrapCrash(algo.NewSimpleAnt(10, rng.New(1)), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.(interface{ Decided() bool }); ok {
		t.Fatal("wrapping a non-deciding agent fabricated a Decided method")
	}
}

// TestSleepDeciderForwardsVerdict is the sleep-side twin of the crash test.
func TestSleepDeciderForwardsVerdict(t *testing.T) {
	t.Parallel()
	inner := &recordingAgent{decided: true}
	s, err := wrapSleep(inner, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := s.(interface{ Decided() bool })
	if !ok {
		t.Fatal("wrapping a deciding agent lost the Decided method")
	}
	if !d.Decided() {
		t.Fatal("verdict not forwarded through the sleep wrapper")
	}
	plain, err := wrapSleep(algo.NewSimpleAnt(10, rng.New(2)), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := plain.(interface{ Decided() bool }); ok {
		t.Fatal("wrapping a non-deciding agent fabricated a Decided method")
	}
}

func TestNewSleepAntValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewSleepAnt(nil, 5); err == nil {
		t.Fatal("nil inner accepted")
	}
	if _, err := NewSleepAnt(&recordingAgent{}, 1); err == nil {
		t.Fatal("wake round 1 accepted (would never sleep)")
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
	s, err := NewSleepAnt(inner, 4)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 6; round++ {
		act := s.Act(round)
		if round < 4 {
			if act.Kind != sim.ActionRecruit || act.Active || act.Nest != sim.Home {
				t.Fatalf("round %d: sleeping act = %+v, want recruit(0, home)", round, act)
			}
			if s.Awake(round) {
				t.Fatalf("round %d: Awake before wake round", round)
			}
		} else if !s.Awake(round) {
			t.Fatalf("round %d: not awake at/after wake round", round)
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
// lowering, plus the disabled-spec fast path.
func TestSpecWrapAgents(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	agents, err := (algo.Simple{}).Build(100, env, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		CrashFraction:     0.2,
		CrashWindow:       10,
		ByzantineFraction: 0.1,
		SleepFraction:     0.15,
		SleepWindow:       12,
		Salt:              3,
	}
	wrapped, err := spec.WrapAgents(77, agents)
	if err != nil {
		t.Fatal(err)
	}
	crashes, byz, sleepers := 0, 0, 0
	for _, a := range wrapped {
		switch a.(type) {
		case *CrashAnt:
			crashes++
		case *ByzantineAnt:
			byz++
		case *SleepAnt:
			sleepers++
		}
	}
	if crashes != 20 || byz != 10 || sleepers != 15 {
		t.Fatalf("victims: %d crash, %d byzantine, %d asleep; want 20, 10, 15", crashes, byz, sleepers)
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
