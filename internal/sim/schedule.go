package sim

import (
	"fmt"

	"github.com/gmrl/househunt/internal/rng"
)

// This file is the engine half of the adaptive-adversary subsystem: the
// FaultSchedule contract both engines share, the batch lane's end-of-round
// mutation pass (applySchedule) and the crash-recovery restart (restartAnt),
// plus the scalar engine's RoundHook plumbing. The faults package supplies
// the other half — the scalar wrapper layer and the stock schedules — and the
// cross-engine differential harness in internal/algo pins the two
// bit-identical.
//
// Timing contract. A schedule observes and mutates at the END of round r:
// after the round's actions resolved and every observe folded, but before the
// round's convergence census is taken. Both engines honor the same point —
// the batch lane calls applySchedule as the last step of stepGeneral, the
// scalar engine calls its RoundHook after the observe loop — so a crash
// scheduled "now" removes the ant from the census of the round it was
// decided in, under either engine. Static fault events (FaultSpec fractions)
// keep their PRE-round semantics from PR 6; the two layers compose.
//
// Draw contract. A schedule consumes randomness only from the adv source it
// is handed — a dedicated adversary stream split off the replicate root at
// EffectiveScheduleSalt(), touched by nothing else — so a randomized schedule
// perturbs no simulation stream and stays bit-identical across engines by
// construction. Draws must be unconditional or gated on ColonyView state
// (which the engines agree on), never on engine internals.

// AntStatus is an ant's fault classification as a schedule observes it.
type AntStatus uint8

const (
	// AntLive: the ant runs its inner algorithm (it may have woken or been
	// restarted earlier; its program clock restarted then).
	AntLive AntStatus = iota
	// AntSleeping: an idle-reserve ant waiting at home for its static wake
	// round. Counted by the census.
	AntSleeping
	// AntCrashed: a crashed ant (static schedule or FaultCrash). Excluded
	// from the census; eligible for FaultRestart.
	AntCrashed
	// AntByzantine: a luring adversary. Excluded from the census; eligible
	// for FaultRelocate.
	AntByzantine
)

// ColonyView is the per-round snapshot a FaultSchedule observes: the round
// number, the commitment census, the decided count and the alive/faulty
// tallies, plus per-ant status and commitment. Both engines present the same
// values at the same observation point, so a schedule keyed on the view is
// engine-agnostic. Implementations are only valid during the Step call they
// are passed to; schedules must not retain them.
type ColonyView interface {
	// Round is the 1-based round that just resolved.
	Round() int
	// N is the colony size, K the number of candidate nests.
	N() int
	K() int
	// Alive is the census total: n minus crashed minus Byzantine ants
	// (sleepers count). Faulty is its complement, Crashed the crashed ants
	// alone (restart candidates).
	Alive() int
	Faulty() int
	Crashed() int
	// Decided is the number of census ants in a decided state, or -1 for
	// non-deciding algorithms (mirroring core.Census.Decided).
	Decided() int
	// Census is the number of census ants committed to nest (Home = 0 is
	// the uncommitted pool). Out-of-range nests report 0.
	Census(nest NestID) int
	// Quality is the environment's quality of nest; Home and out-of-range
	// nests report 0.
	Quality(nest NestID) float64
	// Status is ant i's fault classification.
	Status(i int) AntStatus
	// Committed is ant i's committed nest (Home when uncommitted, sleeping,
	// crashed or Byzantine).
	Committed(i int) NestID
}

// FaultOpKind enumerates the mutations a schedule can request.
type FaultOpKind uint8

const (
	// FaultCrash crashes a live or sleeping ant now: it leaves the census at
	// the end of this round and wanders to its last known nest from the next.
	FaultCrash FaultOpKind = iota
	// FaultRestart revives a crashed ant: it rejoins the census now and
	// re-enters its algorithm's round-1 state next round, with a pristine
	// agent stream — exactly like a sleeper waking.
	FaultRestart
	// FaultRelocate re-aims a Byzantine lurer: from the next round it
	// actively recruits for Nest (which must be a candidate nest, 1..k).
	FaultRelocate
)

// FaultOp is one requested mutation. Nest is only read for FaultRelocate.
type FaultOp struct {
	Kind FaultOpKind
	Ant  int32
	Nest NestID
}

// FaultSchedule is an adaptive adversary: once per round, after the round
// resolves, Step observes the colony and appends the mutations it wants to
// ops (passed sliced to length 0, capacity reused across rounds). Ops are
// applied in the returned order; an op naming an ineligible ant (crashing a
// corpse, restarting a live ant, relocating a non-Byzantine) or an
// out-of-range nest poisons the run with an error naming the schedule.
//
// One FaultSchedule instance serves one replicate: FaultSpec.NewSchedule is
// called per replicate reset, so stateful schedules (budgets, last targets)
// start fresh and replicates stay independent. Draws come only from adv (see
// the package comment's draw contract).
type FaultSchedule interface {
	Name() string
	Step(v ColonyView, adv *rng.Source, ops []FaultOp) []FaultOp
}

// RoundHook is the scalar engine's end-of-round callback: invoked after the
// observe loop of each round, before the caller's convergence predicate. A
// returned error poisons the engine. The faults package's adaptive controller
// is the one producer; the engine discovers it through RoundHooked.
type RoundHook func(e *Engine, round int) error

// RoundHooked is implemented by agents that carry an engine-level round hook
// (the adaptive fault controller's wrapped ants). Engine construction scans
// the colony and installs the first hook found.
type RoundHooked interface {
	RoundHook() RoundHook
}

// laneView adapts a batch lane to ColonyView. It is a named conversion of the
// lane itself — (*laneView)(ln) — so presenting the view to a schedule boxes
// no value and allocates nothing.
type laneView lane

var _ ColonyView = (*laneView)(nil)

// Round implements ColonyView.
//
//hh:hotpath
func (v *laneView) Round() int { return (*lane)(v).round }

// N implements ColonyView.
//
//hh:hotpath
func (v *laneView) N() int { return (*lane)(v).n }

// K implements ColonyView.
//
//hh:hotpath
func (v *laneView) K() int { return (*lane)(v).k }

// Alive implements ColonyView.
//
//hh:hotpath
func (v *laneView) Alive() int { return (*lane)(v).alive }

// Faulty implements ColonyView.
//
//hh:hotpath
func (v *laneView) Faulty() int { ln := (*lane)(v); return ln.n - ln.alive }

// Crashed implements ColonyView.
//
//hh:hotpath
func (v *laneView) Crashed() int { return (*lane)(v).nCrashed }

// Decided implements ColonyView.
//
//hh:hotpath
func (v *laneView) Decided() int {
	ln := (*lane)(v)
	if !ln.decides {
		return -1
	}
	return ln.finals
}

// Census implements ColonyView.
//
//hh:hotpath
func (v *laneView) Census(nest NestID) int {
	ln := (*lane)(v)
	if nest < 0 || int(nest) >= len(ln.commit) {
		return 0
	}
	return ln.commit[nest]
}

// Quality implements ColonyView.
//
//hh:hotpath
func (v *laneView) Quality(nest NestID) float64 {
	ln := (*lane)(v)
	if nest < 1 || int(nest) > ln.k {
		return 0
	}
	return ln.qual[nest]
}

// Status implements ColonyView.
//
//hh:hotpath
func (v *laneView) Status(i int) AntStatus {
	ln := (*lane)(v)
	switch ln.state[i] {
	case ln.crashSt:
		return AntCrashed
	case ln.byzSrchSt, ln.byzRecrSt:
		return AntByzantine
	case ln.sleepSt:
		return AntSleeping
	}
	return AntLive
}

// Committed implements ColonyView.
//
//hh:hotpath
func (v *laneView) Committed(i int) NestID {
	ln := (*lane)(v)
	switch ln.state[i] {
	case ln.crashSt, ln.byzSrchSt, ln.byzRecrSt:
		return Home
	}
	return NestID(ln.nest[i])
}

// applySchedule runs the lane's FaultSchedule at the end of a resolved round
// and applies the returned mutations in order, in a sequential ant-order-free
// pass (ops apply one by one; no shard fans out, so worker/shard counts
// cannot reorder anything). The census tallies (commit, alive, nCrashed,
// finals) are maintained incrementally so the round's census — taken right
// after — sees the mutations, matching the scalar hook's position.
//
//hh:hotpath
//hh:draws schedule draws come only from the dedicated adversary stream (schedSrc); no simulation stream is touched
func (ln *lane) applySchedule() error {
	//hh:allocok pointer-shaped view: the interface word holds *laneView, no heap allocation
	ops := ln.sched.Step((*laneView)(ln), &ln.schedSrc, ln.schedOps[:0])
	ln.schedOps = ops[:0] // keep the (possibly grown) buffer for next round
	state := ln.state
	for _, op := range ops {
		i := int(op.Ant)
		if i < 0 || i >= ln.n {
			return fmt.Errorf("schedule %q: ant %d out of range 0..%d", ln.sched.Name(), i, ln.n-1)
		}
		switch op.Kind {
		case FaultCrash:
			switch state[i] {
			case ln.crashSt:
				return fmt.Errorf("schedule %q: crash(%d): ant already crashed", ln.sched.Name(), i)
			case ln.byzSrchSt, ln.byzRecrSt:
				return fmt.Errorf("schedule %q: crash(%d): ant is Byzantine", ln.sched.Name(), i)
			}
			ln.crashAnt(i)
		case FaultRestart:
			if state[i] != ln.crashSt {
				return fmt.Errorf("schedule %q: restart(%d): ant is not crashed", ln.sched.Name(), i)
			}
			ln.restartAnt(i)
		case FaultRelocate:
			if state[i] != ln.byzSrchSt && state[i] != ln.byzRecrSt {
				return fmt.Errorf("schedule %q: relocate(%d): ant is not Byzantine", ln.sched.Name(), i)
			}
			if op.Nest < 1 || int(op.Nest) > ln.k {
				return fmt.Errorf("schedule %q: relocate(%d, %d): nest out of range 1..%d", ln.sched.Name(), i, op.Nest, ln.k)
			}
			ln.nest[i] = uint8(op.Nest) // range-checked above
			state[i] = ln.byzRecrSt
		default:
			return fmt.Errorf("schedule %q: unknown fault op kind %d", ln.sched.Name(), op.Kind)
		}
	}
	return nil
}

// restartAnt revives crashed ant i into its program's initial state through
// resetRange — the exact registers and parameter columns reset gave it at
// replicate start (ApproxN's ñ is the keyed estimate the scalar rebuild's
// builder computes). The ant rejoins the census immediately and emits from
// the initial state next round, re-entering the algorithm's round-1 clock
// like a waking sleeper: its clock offset becomes this round, so its
// logical rounds, and with them its keyed draws, replay its birth draws.
//
//hh:coldpath restart events are sparse — O(requested ops), never O(n) per round, like parkErr's error path
func (ln *lane) restartAnt(i int) {
	ln.resetRange(i, i+1)
	ln.base[i] = int32(ln.round)
	ln.alive++
	ln.nCrashed--
	ln.commit[Home]++
	ln.finals += int(ln.final[ln.state[i]])
}
