package faults

import (
	"fmt"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// This file is the scalar half of the adaptive-adversary subsystem: the
// controller that presents a sim.ColonyView of a wrapped scalar colony to a
// FaultSchedule and applies its mutations through the engine's RoundHook,
// plus the stock schedules. The batch half lives in internal/sim/schedule.go
// (the lane's applySchedule pass); both halves step the SAME schedule value
// against the SAME snapshot semantics with the SAME dedicated adversary
// stream, which is what pins adaptive-fault replicates bit-identical across
// engines (the differential harness and FuzzBatchAdaptiveFaultEquivalence
// enforce it).

// Schedule is the adaptive adversary contract, shared verbatim with the
// batch engine: observe the end-of-round colony snapshot, return fault
// mutations, draw only from the dedicated adversary stream.
type Schedule = sim.FaultSchedule

// schedAnt is the scalar engine's one fault wrapper: a status machine over
// one colony member. Its static plan (from FaultSpec.Assign) crashes it at
// crashAt or wakes it at wakeAt; a Byzantine victim (inner nil) searches
// until it finds a bad nest and lures toward it forever; and a schedule's
// controller applies crash, restart and relocate transitions between
// rounds. ctrl is nil without a schedule, and then only victims are wrapped.
type schedAnt struct {
	ctrl   *schedCtrl
	inner  sim.Agent // nil exactly when the ant is a Byzantine victim
	status sim.AntStatus
	// base is the inner agent's clock offset: Act/Observe forward round-base,
	// so a woken or restarted inner agent sees round 1 first — the batch
	// engine's initial program state — and keys its draws on that logical
	// round, as the batch lane's clock-offset column does.
	base int
	// Static fault plan (from FaultSpec.Assign): wakeAt > 0 schedules the
	// wake, crashAt > 0 the crash. Zero disables either.
	wakeAt  int
	crashAt int
	// lastNest is the last non-home outcome nest, live or dead — where the
	// corpse wanders after a crash (kept for every wrapped ant because any
	// ant can crash under a schedule).
	lastNest sim.NestID
	// badNest is the Byzantine lure target (Home until latched or relocated).
	badNest sim.NestID
}

var _ sim.Agent = (*schedAnt)(nil)
var _ sim.RoundHooked = (*schedAnt)(nil)

// agent returns the sim.Agent the engine steps for a: a schedDecider over a
// deciding inner agent, so the census keeps the algorithm's decider
// contract, and a itself otherwise.
func (a *schedAnt) agent() sim.Agent {
	if _, ok := a.inner.(decider); ok {
		return schedDecider{a}
	}
	return a
}

// RoundHook implements sim.RoundHooked: under a schedule every ant carries
// the shared controller hook, and the engine installs the first (hence the)
// one; without a schedule there is none, so the engine installs no hook.
func (a *schedAnt) RoundHook() sim.RoundHook {
	if a.ctrl == nil {
		return nil
	}
	return a.ctrl.hook
}

// Act implements sim.Agent. Static transitions fire first — wake at
// round >= wakeAt while still sleeping, crash at round == crashAt while live
// or sleeping — then the status selects the behavior: a live ant delegates
// on its translated clock, a sleeper and a nest-less corpse wait at home, a
// corpse walks to its last known nest, and a Byzantine ant hunts or lures.
// The crash match is exact: the engine calls Act every round, so == fires
// exactly when >= first would, and an ant a schedule restarts after its
// static crash round must not crash again (the batch lane's crash list is
// matched with == identically).
func (a *schedAnt) Act(round int) sim.Action {
	if a.status == sim.AntSleeping && a.wakeAt > 0 && round >= a.wakeAt {
		a.status = sim.AntLive
		a.base = a.wakeAt - 1
	}
	if (a.status == sim.AntLive || a.status == sim.AntSleeping) && a.crashAt > 0 && round == a.crashAt {
		a.status = sim.AntCrashed
	}
	switch a.status {
	case sim.AntLive:
		return a.inner.Act(round - a.base)
	case sim.AntSleeping:
		return sim.Recruit(false, sim.Home)
	case sim.AntCrashed:
		if a.lastNest != sim.Home {
			return sim.Goto(a.lastNest)
		}
		return sim.Recruit(false, sim.Home)
	default: // AntByzantine
		if a.badNest == sim.Home {
			return sim.Search()
		}
		return sim.Recruit(true, a.badNest)
	}
}

// Observe implements sim.Agent: last-nest tracking for every status (any ant
// can crash later, and a corpse keeps drifting where recruiters drag it),
// the inner agent's fold when live, and the Byzantine first-bad-nest latch.
func (a *schedAnt) Observe(round int, out sim.Outcome) {
	if out.Nest != sim.Home {
		a.lastNest = out.Nest
	}
	switch a.status {
	case sim.AntLive:
		a.inner.Observe(round-a.base, out)
	case sim.AntByzantine:
		if a.badNest == sim.Home && out.Quality == 0 && out.Nest != sim.Home {
			a.badNest = out.Nest
		}
	}
}

// Faulty implements the core.Faulty contract: crashed and Byzantine ants are
// census-excluded, sleeping ants count.
func (a *schedAnt) Faulty() bool {
	return a.status == sim.AntCrashed || a.status == sim.AntByzantine
}

// Committed delegates to the inner agent while the ant is censused (live or
// sleeping; a sleeper's inner agent has never acted and reports
// uncommitted), and reports no commitment for crashed or Byzantine ants.
func (a *schedAnt) Committed() (sim.NestID, bool) {
	switch a.status {
	case sim.AntCrashed, sim.AntByzantine:
		return sim.Home, false
	}
	if com, ok := a.inner.(committer); ok {
		return com.Committed()
	}
	return sim.Home, false
}

// schedDecider is a schedAnt over a deciding inner agent. It forwards the
// inner verdict so a censused wrapped ant still counts as a decider in
// core.TakeCensus: without it, wrapping ANY ant of a deciding algorithm
// (e.g. Algorithm 2) would make convergence unreachable, because the ant
// counts toward Total but never as decided.
type schedDecider struct{ *schedAnt }

// Decided forwards the inner agent's verdict while censused and reports
// false for faulty statuses (the census never consults those anyway).
func (a schedDecider) Decided() bool {
	switch a.status {
	case sim.AntCrashed, sim.AntByzantine:
		return false
	}
	return a.inner.(decider).Decided()
}

// schedCtrl drives one FaultSchedule over a wrapped scalar colony. One
// controller serves one replicate: Spec.WrapAgents builds it fresh per seed,
// mirroring the batch lane's per-replicate schedule reset.
type schedCtrl struct {
	sched   Schedule
	adv     *rng.Source
	rebuild func(seed uint64) ([]sim.Agent, error)
	seed    uint64
	ants    []*schedAnt
	decides bool // the inner algorithm decides (mirrors Program.Decides)
	ops     []sim.FaultOp
	commit  []int // commitment census scratch, (k+1)-sized at first hook
}

// hook is the controller's sim.RoundHook: recompute the census snapshot
// (exactly core.TakeCensus's semantics — faulty ants skipped, commitments
// range-checked, decided counted over censused deciders), step the schedule
// on it, and apply the returned mutations. It runs after the round's observe
// loop and before the caller's convergence predicate — the batch lane's
// applySchedule position.
func (c *schedCtrl) hook(e *sim.Engine, round int) error {
	k := e.K()
	if len(c.commit) != k+1 {
		c.commit = make([]int, k+1)
	}
	for i := range c.commit {
		c.commit[i] = 0
	}
	alive, crashed, faulty := 0, 0, 0
	decided := -1
	if c.decides {
		decided = 0
	}
	for _, a := range c.ants {
		switch a.status {
		case sim.AntCrashed:
			crashed++
			faulty++
			continue
		case sim.AntByzantine:
			faulty++
			continue
		}
		alive++
		nest := sim.Home
		if n, committed := a.Committed(); committed && n >= 1 && int(n) <= k {
			nest = n
		}
		c.commit[nest]++
		if c.decides {
			if d, ok := a.inner.(decider); ok && d.Decided() {
				decided++
			}
		}
	}
	view := schedView{
		ctrl: c, e: e, round: round,
		alive: alive, crashed: crashed, faulty: faulty, decided: decided,
	}
	ops := c.sched.Step(&view, c.adv, c.ops[:0])
	c.ops = ops[:0]

	// Apply in order, validating eligibility exactly like the batch lane's
	// applySchedule. A restart adopts a pristine agent from a fresh rebuild
	// of the colony at the replicate seed, under the same agent key, and
	// restarts its clock: its keyed draws at logical rounds 1, 2, … replay
	// the ones ant i was born with — which is exactly what the batch lane's
	// clock offset does. The rebuild is amortized once per hook invocation
	// that restarts anything.
	var pristine []sim.Agent
	for _, op := range ops {
		i := int(op.Ant)
		if i < 0 || i >= len(c.ants) {
			return fmt.Errorf("faults: schedule %q: ant %d out of range 0..%d", c.sched.Name(), i, len(c.ants)-1)
		}
		a := c.ants[i]
		switch op.Kind {
		case sim.FaultCrash:
			switch a.status {
			case sim.AntCrashed:
				return fmt.Errorf("faults: schedule %q: crash(%d): ant already crashed", c.sched.Name(), i)
			case sim.AntByzantine:
				return fmt.Errorf("faults: schedule %q: crash(%d): ant is Byzantine", c.sched.Name(), i)
			}
			a.status = sim.AntCrashed
		case sim.FaultRestart:
			if a.status != sim.AntCrashed {
				return fmt.Errorf("faults: schedule %q: restart(%d): ant is not crashed", c.sched.Name(), i)
			}
			if pristine == nil {
				if c.rebuild == nil {
					return fmt.Errorf("faults: schedule %q requests a restart but Spec.Rebuild is nil (the scalar path needs the colony builder to revive ants)", c.sched.Name())
				}
				var err error
				if pristine, err = c.rebuild(c.seed); err != nil {
					return fmt.Errorf("faults: schedule %q: rebuilding colony for restart: %w", c.sched.Name(), err)
				}
				if len(pristine) != len(c.ants) {
					return fmt.Errorf("faults: schedule %q: rebuild returned %d agents, want %d", c.sched.Name(), len(pristine), len(c.ants))
				}
			}
			a.inner = pristine[i]
			a.status = sim.AntLive
			a.base = round // inner sees round 1 next round
			a.lastNest = sim.Home
		case sim.FaultRelocate:
			if a.status != sim.AntByzantine {
				return fmt.Errorf("faults: schedule %q: relocate(%d): ant is not Byzantine", c.sched.Name(), i)
			}
			if op.Nest < 1 || int(op.Nest) > k {
				return fmt.Errorf("faults: schedule %q: relocate(%d, %d): nest out of range 1..%d", c.sched.Name(), i, op.Nest, k)
			}
			a.badNest = op.Nest
			// The relocated lurer will recruit(1, Nest) without ever visiting:
			// teach the nest out of band so §2 validation licenses it
			// (a real lurer would simply walk there first).
			e.Teach(i, op.Nest)
		default:
			return fmt.Errorf("faults: schedule %q: unknown fault op kind %d", c.sched.Name(), op.Kind)
		}
	}
	return nil
}

// schedView adapts one hook invocation's census snapshot to sim.ColonyView.
type schedView struct {
	ctrl    *schedCtrl
	e       *sim.Engine
	round   int
	alive   int
	crashed int
	faulty  int
	decided int
}

var _ sim.ColonyView = (*schedView)(nil)

func (v *schedView) Round() int   { return v.round }
func (v *schedView) N() int       { return len(v.ctrl.ants) }
func (v *schedView) K() int       { return v.e.K() }
func (v *schedView) Alive() int   { return v.alive }
func (v *schedView) Faulty() int  { return v.faulty }
func (v *schedView) Crashed() int { return v.crashed }
func (v *schedView) Decided() int { return v.decided }

func (v *schedView) Census(nest sim.NestID) int {
	if nest < 0 || int(nest) >= len(v.ctrl.commit) {
		return 0
	}
	return v.ctrl.commit[nest]
}

func (v *schedView) Quality(nest sim.NestID) float64 {
	if nest < 1 || int(nest) > v.e.K() {
		return 0
	}
	return v.e.Env().Quality(nest)
}

func (v *schedView) Status(i int) sim.AntStatus { return v.ctrl.ants[i].status }

func (v *schedView) Committed(i int) sim.NestID {
	a := v.ctrl.ants[i]
	switch a.status {
	case sim.AntCrashed, sim.AntByzantine:
		return sim.Home
	}
	if n, committed := a.Committed(); committed && n >= 1 && int(n) <= v.e.K() {
		return n
	}
	return sim.Home
}

// TargetedCrash is the adaptive decapitation adversary: each round it crashes
// up to PerRound live ants committed to the current leading nest (the
// candidate with the largest censused commitment; ties break to the lowest
// nest id, and no one crashes while no ant is committed), in ascending ant
// order, until Budget total crashes have been spent. It is draw-free — its
// policy is a pure function of the colony view — so it consumes nothing from
// the adversary stream.
type TargetedCrash struct {
	// PerRound caps crashes per round; values <= 0 select 1.
	PerRound int
	// Budget caps total crashes; values <= 0 leave the budget unlimited
	// (the adversary can eventually grind the whole colony down).
	Budget int

	crashed int
}

var _ Schedule = (*TargetedCrash)(nil)

// Name implements Schedule.
func (t *TargetedCrash) Name() string { return "targeted-crash" }

// Step implements Schedule.
func (t *TargetedCrash) Step(v sim.ColonyView, _ *rng.Source, ops []sim.FaultOp) []sim.FaultOp {
	k := v.K()
	lead := sim.Home
	best := 0
	for nest := 1; nest <= k; nest++ {
		if c := v.Census(sim.NestID(nest)); c > best {
			best = c
			lead = sim.NestID(nest)
		}
	}
	if lead == sim.Home {
		return ops
	}
	per := t.PerRound
	if per <= 0 {
		per = 1
	}
	n := v.N()
	for i := 0; i < n && per > 0; i++ {
		if t.Budget > 0 && t.crashed >= t.Budget {
			break
		}
		if v.Status(i) == sim.AntLive && v.Committed(i) == lead {
			ops = append(ops, sim.FaultOp{Kind: sim.FaultCrash, Ant: int32(i)})
			t.crashed++
			per--
		}
	}
	return ops
}

// AdaptiveLurer re-aims the colony's Byzantine lurers at the front-running
// BAD nest: whichever zero-quality candidate currently holds the largest
// censused commitment (ties to the lowest nest id; with no commitments
// anywhere the lowest bad nest is targeted, so lurers coordinate from round
// one instead of latching whatever their searches found). Relocations fire
// only when the target changes. Draw-free; pair it with a
// ByzantineFraction > 0 spec — with no Byzantine ants it is a no-op.
type AdaptiveLurer struct {
	last sim.NestID
}

var _ Schedule = (*AdaptiveLurer)(nil)

// Name implements Schedule.
func (l *AdaptiveLurer) Name() string { return "adaptive-lurer" }

// Step implements Schedule.
func (l *AdaptiveLurer) Step(v sim.ColonyView, _ *rng.Source, ops []sim.FaultOp) []sim.FaultOp {
	k := v.K()
	target := sim.Home
	best := -1
	for nest := 1; nest <= k; nest++ {
		id := sim.NestID(nest)
		if v.Quality(id) > 0 {
			continue
		}
		if c := v.Census(id); c > best {
			best = c
			target = id
		}
	}
	if target == sim.Home || target == l.last {
		return ops
	}
	n := v.N()
	for i := 0; i < n; i++ {
		if v.Status(i) == sim.AntByzantine {
			ops = append(ops, sim.FaultOp{Kind: sim.FaultRelocate, Ant: int32(i), Nest: target})
		}
	}
	l.last = target
	return ops
}

// Churn is the crash-recovery adversary: every live ant crashes with
// probability CrashProb each round, and every crashed ant restarts with
// probability 1/MeanDowntime — a geometric downtime with the given mean, the
// discrete-round form of exponential restart. Draws come from the dedicated
// adversary stream, one Bernoulli per eligible ant in ascending ant order, so
// both engines consume the stream identically. MeanDowntime <= 1 restarts
// every corpse after exactly one down round; MeanDowntime = 0 disables
// restarts (Churn degenerates to random attrition).
type Churn struct {
	CrashProb    float64
	MeanDowntime float64
}

var _ Schedule = Churn{}

// Name implements Schedule.
func (Churn) Name() string { return "churn" }

// Step implements Schedule.
func (c Churn) Step(v sim.ColonyView, adv *rng.Source, ops []sim.FaultOp) []sim.FaultOp {
	restartP := 0.0
	if c.MeanDowntime > 0 {
		restartP = 1 / c.MeanDowntime
		if restartP > 1 {
			restartP = 1
		}
	}
	n := v.N()
	for i := 0; i < n; i++ {
		switch v.Status(i) {
		case sim.AntLive:
			// The gate is engine-agnostic (both engines agree on Status), and
			// Bernoulli at p <= 0 consumes nothing, so the CrashProb > 0 check
			// is a pure fast path.
			if c.CrashProb > 0 && adv.Bernoulli(c.CrashProb) {
				ops = append(ops, sim.FaultOp{Kind: sim.FaultCrash, Ant: int32(i)})
			}
		case sim.AntCrashed:
			if restartP > 0 && adv.Bernoulli(restartP) {
				ops = append(ops, sim.FaultOp{Kind: sim.FaultRestart, Ant: int32(i)})
			}
		}
	}
	return ops
}
