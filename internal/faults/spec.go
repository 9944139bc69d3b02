package faults

import (
	"fmt"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// Spec is the declarative fault plan: per-colony crash, Byzantine and sleep
// fractions plus the stream salt the victim assignment is drawn with. It
// lowers BOTH ways — to the scalar status wrapper (WrapAgents, for
// core.RunConfig.Wrap) and to the batch engine's fault lanes (BatchFaults, recognized by
// core.CompileForBatch) — from ONE canonical stream consumption,
// sim.FaultSpec.Assign, which is what pins the two paths bit-identical: the
// same ants crash at the same rounds, turn Byzantine, or sleep until the same
// wake rounds under either engine.
type Spec struct {
	// CrashFraction of the colony crashes at a uniformly random round in
	// [1, CrashWindow] (§6 crash faults).
	CrashFraction float64
	// CrashWindow is the last round by which scheduled crashes fire;
	// values <= 0 select sim.DefaultFaultWindow.
	CrashWindow int
	// ByzantineFraction of the colony is replaced by luring adversaries
	// (§6 malicious faults).
	ByzantineFraction float64
	// SleepFraction of the colony starts as an idle reserve, waking at a
	// uniformly random round in [2, SleepWindow+1].
	SleepFraction float64
	// SleepWindow bounds the wake rounds; values <= 0 select
	// sim.DefaultFaultWindow.
	SleepWindow int
	// Salt is the Split index of the fault stream: victims are drawn from
	// rng.New(seed).Split(Salt) under the run's root seed.
	Salt uint64
	// NewSchedule, when non-nil, attaches an adaptive adversary: a fresh
	// Schedule per replicate, stepped at the end of every round on the
	// colony snapshot with the dedicated adversary stream
	// rng.New(seed).Split(EffectiveScheduleSalt). Both engines build the
	// schedule from this factory and feed it the same snapshot and stream,
	// which is what keeps adaptive-fault replicates bit-identical. The
	// factory must be deterministic: two calls must yield schedules that
	// draw and mutate identically.
	NewSchedule func() Schedule
	// ScheduleSalt is the Split index of the adversary stream; 0 selects
	// Salt+1 (see sim.FaultSpec.EffectiveScheduleSalt).
	ScheduleSalt uint64
	// Rebuild rebuilds the pristine colony for the replicate seed, for
	// schedules that restart crashed ants: a restarted ant adopts
	// Rebuild(seed)[i] as its fresh inner agent, built under the agent key
	// ant i was born with; its clock restarts at logical round 1, so its
	// keyed draws replay its birth draws. Scalar-only — the batch lane
	// resets restarted ants from its own columns — and required only
	// when the schedule emits FaultRestart ops; leaving it nil makes a
	// restart a run error. Typically cfg's algorithm builder closed over the
	// run's n and environment.
	Rebuild func(seed uint64) ([]sim.Agent, error)
}

// lower converts the spec to its sim-level form. Rebuild stays behind:
// it is scalar-machinery only.
func (s Spec) lower() sim.FaultSpec {
	return sim.FaultSpec{
		CrashFraction:     s.CrashFraction,
		CrashWindow:       s.CrashWindow,
		ByzantineFraction: s.ByzantineFraction,
		SleepFraction:     s.SleepFraction,
		SleepWindow:       s.SleepWindow,
		Salt:              s.Salt,
		NewSchedule:       s.NewSchedule,
		ScheduleSalt:      s.ScheduleSalt,
	}
}

// Enabled reports whether the spec injects any faults.
func (s Spec) Enabled() bool { return s.lower().Enabled() }

// Validate checks the spec's fractions and windows.
func (s Spec) Validate() error { return s.lower().Validate() }

// BatchFaults implements core.BatchFaultWrapper: it exposes the spec's
// sim-level lowering so core.CompileForBatch can compile a Spec-wrapped
// config to the batch engine's fault lanes instead of declining the wrapper.
func (s Spec) BatchFaults() (sim.FaultSpec, bool) { return s.lower(), s.Enabled() }

// WrapAgents implements core.AgentWrapper: it draws the victim assignment
// from rng.New(seed).Split(Salt) via sim.FaultSpec.Assign — the batch lane
// consumes the identical stream — and wraps each victim in a schedAnt
// carrying its static fault plan, preserving the inner agent's decider
// contract. Without a NewSchedule the other ants stay bare and the colony
// carries no round hook. With one, EVERY ant is wrapped (any ant can crash
// or restart under an adaptive adversary), all sharing one controller that
// steps the schedule from the engine's round hook on the adversary stream
// rng.New(seed).Split(EffectiveScheduleSalt).
func (s Spec) WrapAgents(seed uint64, agents []sim.Agent) ([]sim.Agent, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	fs := s.lower()
	if !fs.Enabled() {
		return agents, nil
	}
	n := len(agents)
	crashRound := make([]int32, n)
	wakeRound := make([]int32, n)
	byz := make([]uint8, n)
	fs.Assign(n, rng.New(seed).Split(s.Salt), crashRound, wakeRound, byz, make([]int32, n))
	var ctrl *schedCtrl
	if s.NewSchedule != nil {
		ctrl = &schedCtrl{
			sched:   s.NewSchedule(),
			adv:     rng.New(seed).Split(fs.EffectiveScheduleSalt()),
			rebuild: s.Rebuild,
			seed:    seed,
			ants:    make([]*schedAnt, n),
			ops:     make([]sim.FaultOp, 0, 64),
		}
		if ctrl.sched == nil {
			return nil, fmt.Errorf("faults: NewSchedule returned nil")
		}
		for _, inner := range agents {
			// The algorithm's decider contract is a colony property (mirrors
			// Program.Decides), read off the pre-replacement agents so a
			// Byzantine victim's lost inner still counts.
			if _, ok := inner.(decider); ok {
				ctrl.decides = true
				break
			}
		}
	}
	for i, inner := range agents {
		a := &schedAnt{ctrl: ctrl, inner: inner}
		switch {
		case crashRound[i] > 0:
			a.crashAt = int(crashRound[i])
		case byz[i] != 0:
			a.inner = nil
			a.status = sim.AntByzantine
		case wakeRound[i] > 0:
			a.wakeAt = int(wakeRound[i])
			a.status = sim.AntSleeping
		case ctrl == nil:
			continue // no schedule can touch a non-victim: it stays bare
		}
		if ctrl != nil {
			ctrl.ants[i] = a
		}
		agents[i] = a.agent()
	}
	return agents, nil
}
