package algo

import (
	"testing"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/nest"
	"github.com/gmrl/househunt/internal/sim"
)

func TestQuorumConverges(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0, 1, 0})
	for seed := uint64(1); seed <= 8; seed++ {
		res := runAlgo(t, Quorum{}, 200, env, seed, 0)
		if !res.Solved {
			t.Fatalf("seed %d: quorum colony unsolved", seed)
		}
		if !env.Good(res.Winner) {
			t.Fatalf("seed %d: quorum picked bad nest %d", seed, res.Winner)
		}
		// Algorithm's Decided == transporting: everyone must be moving.
		if res.FinalCensus.Decided != res.FinalCensus.Total {
			t.Fatalf("seed %d: %d/%d ants transporting at convergence",
				seed, res.FinalCensus.Decided, res.FinalCensus.Total)
		}
	}
}

func TestQuorumTransportSpeedsFinish(t *testing.T) {
	t.Parallel()
	// With carry=3 transports, the post-quorum phase should finish faster
	// than with carry=1 (pure tandem runs) on average.
	env := sim.MustEnvironment([]float64{1, 1})
	const n, reps = 300, 8
	var fast, slow int
	for seed := uint64(1); seed <= reps; seed++ {
		withTransport := runAlgo(t, Quorum{Carry: 3}, n, env, seed, 0)
		tandemOnly := runAlgo(t, Quorum{Carry: 1}, n, env, seed, 0)
		if !withTransport.Solved || !tandemOnly.Solved {
			t.Fatalf("seed %d: transport=%v tandem=%v", seed, withTransport.Solved, tandemOnly.Solved)
		}
		fast += withTransport.Rounds
		slow += tandemOnly.Rounds
	}
	if fast >= slow {
		t.Fatalf("transports (%d total rounds) not faster than tandem-only (%d)", fast, slow)
	}
}

func TestQuorumAntPromotion(t *testing.T) {
	t.Parallel()
	a := NewQuorumAnt(100, testKey(1), 0, 2.0, 3, 0, nil)
	a.Act(1)
	a.Observe(1, sim.Outcome{Nest: 1, Count: 5, Quality: 1})
	// Self-calibrated threshold: 2.0 × 5 = 10 ants.
	if a.transport {
		t.Fatal("transporting below quorum")
	}
	if a.Decided() {
		t.Fatal("decided below quorum")
	}
	a.Act(2)
	a.Observe(2, sim.Outcome{Nest: 1})
	a.Act(3)
	a.Observe(3, sim.Outcome{Nest: 1, Count: 9}) // below 10: no quorum yet
	if a.transport {
		t.Fatal("transporting below the calibrated threshold")
	}
	a.Act(4)
	a.Observe(4, sim.Outcome{Nest: 1})
	a.Act(5)
	a.Observe(5, sim.Outcome{Nest: 1, Count: 12}) // quorum reached at assess
	if !a.transport || !a.Decided() {
		t.Fatal("quorum at assess did not promote to transport")
	}
	act := a.Act(6)
	if act.Kind != sim.ActionRecruit || !act.Active || act.Carry != 3 {
		t.Fatalf("transporting act = %+v, want transport(1, carry 3)", act)
	}
}

func TestQuorumPassiveNeverTransportsAlone(t *testing.T) {
	t.Parallel()
	// An ant on a bad nest stays passive; even a crowded bad nest must not
	// trigger transport (only canvassers promote).
	a := NewQuorumAnt(100, testKey(2), 0, 1.5, 3, 0, nil)
	a.Act(1)
	a.Observe(1, sim.Outcome{Nest: 2, Count: 50, Quality: 0})
	a.Act(2)
	a.Observe(2, sim.Outcome{Nest: 2})
	a.Act(3)
	a.Observe(3, sim.Outcome{Nest: 2, Count: 90}) // above threshold but passive
	if a.transport {
		t.Fatal("passive ant transporting")
	}
	act := a.Act(2)
	if act.Active {
		t.Fatalf("passive quorum ant recruited actively: %+v", act)
	}
}

func TestQuorumNoisyAssessmentStillSolves(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0, 1, 0})
	a := Quorum{Multiplier: 2.0, Assessor: nest.FlipAssessor{P: 0.1}}
	solved := 0
	const reps = 8
	for seed := uint64(1); seed <= reps; seed++ {
		res := runAlgo(t, a, 200, env, seed, 0)
		if res.Solved && env.Good(res.Winner) {
			solved++
		}
	}
	if solved < reps/2 {
		t.Fatalf("noisy quorum solved only %d/%d", solved, reps)
	}
}

func TestQuorumBuilderValidation(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	if _, err := (Quorum{}).Build(0, env, testSrc(1)); err == nil {
		t.Fatal("zero colony accepted")
	}
	if _, err := (Quorum{}).Build(5, sim.Environment{}, testSrc(1)); err == nil {
		t.Fatal("empty environment accepted")
	}
	if _, err := (Quorum{Multiplier: 0.8}).Build(5, env, testSrc(1)); err == nil {
		t.Fatal("multiplier <= 1 accepted")
	}
	if (Quorum{}).Name() == (Quorum{Assessor: nest.FlipAssessor{P: 0.1}}).Name() {
		t.Fatal("assessor not reflected in name")
	}
}

// TestQuorumThresholdExactBoundary pins the quorum comparison at its exact
// boundary: checkQuorum promotes at count >= threshold, so a population of
// threshold−1 must not transport and a population of exactly threshold must.
func TestQuorumThresholdExactBoundary(t *testing.T) {
	t.Parallel()
	a := NewQuorumAnt(100, testKey(11), 0, 2.0, 3, 0, nil)
	a.Act(1)
	a.Observe(1, sim.Outcome{Nest: 1, Count: 5, Quality: 1})
	if a.threshold != 10 {
		t.Fatalf("threshold = %d, want 2.0 × 5 = 10", a.threshold)
	}
	cycle := func(round int, count int) {
		a.Act(round)
		a.Observe(round, sim.Outcome{Nest: 1})
		a.Act(round + 1)
		a.Observe(round+1, sim.Outcome{Nest: 1, Count: count})
	}
	cycle(2, 9) // one below: no quorum
	if a.transport {
		t.Fatal("transporting at threshold − 1")
	}
	cycle(4, 10) // exactly at threshold: quorum
	if !a.transport {
		t.Fatal("population equal to the threshold did not reach quorum")
	}
}

// TestQuorumThresholdGrowthFloor pins the self-calibration floor: when
// multiplier × initial count rounds below initial count + 2, the threshold is
// lifted to initial count + 2 so growth is always required — a nest must gain
// ants over the ant's first visit, never reach quorum standing still.
func TestQuorumThresholdGrowthFloor(t *testing.T) {
	t.Parallel()
	// 1.5 × 2 = 3 < 2 + 2: floored to 4.
	a := NewQuorumAnt(100, testKey(12), 0, 1.5, 3, 0, nil)
	a.Act(1)
	a.Observe(1, sim.Outcome{Nest: 1, Count: 2, Quality: 1})
	if a.threshold != 4 {
		t.Fatalf("threshold = %d, want the floor initial count + 2 = 4", a.threshold)
	}
	// 1.5 × 4 = 6 = 4 + 2: the multiplier value stands exactly at the floor.
	b := NewQuorumAnt(100, testKey(13), 0, 1.5, 3, 0, nil)
	b.Act(1)
	b.Observe(1, sim.Outcome{Nest: 1, Count: 4, Quality: 1})
	if b.threshold != 6 {
		t.Fatalf("threshold = %d, want 1.5 × 4 = 6", b.threshold)
	}
}

// TestQuorumTransporterCaptureSemantics pins the Recruited-flag handling for
// transporters: an uncaptured recruit outcome leaves the transporter alone; a
// fully docile transporter carried to its own nest submits but keeps
// transporting (the "carried by a nestmate advertising the same nest" case);
// carried to a different nest it demotes to a canvasser of that nest.
func TestQuorumTransporterCaptureSemantics(t *testing.T) {
	t.Parallel()
	build := func(seed uint64) *QuorumAnt {
		a := NewQuorumAnt(100, testKey(seed), 0, 2.0, 3, 1, nil)
		a.Act(1)
		a.Observe(1, sim.Outcome{Nest: 1, Count: 3, Quality: 1})
		a.Act(2)
		a.Observe(2, sim.Outcome{Nest: 1})
		a.Act(3)
		a.Observe(3, sim.Outcome{Nest: 1, Count: 50}) // far above quorum
		if !a.transport {
			t.Fatal("setup: ant did not reach quorum")
		}
		return a
	}

	a := build(21)
	a.Act(4)
	a.Observe(4, sim.Outcome{Nest: 1, Count: 40}) // recruit outcome, not captured
	if !a.transport || a.nest != 1 {
		t.Fatalf("uncaptured transporter changed state: transport=%v nest=%d", a.transport, a.nest)
	}

	b := build(22)
	b.Act(4)
	b.Observe(4, sim.Outcome{Nest: 1, Recruited: true}) // carried to its own nest
	if !b.transport || !b.active {
		t.Fatalf("transporter carried to its own nest: transport=%v active=%v, want still transporting",
			b.transport, b.active)
	}

	c := build(23)
	c.Act(4)
	c.Observe(4, sim.Outcome{Nest: 2, Recruited: true}) // carried to a rival nest
	if c.transport {
		t.Fatal("docile transporter kept transporting after adoption")
	}
	if c.nest != 2 || !c.active {
		t.Fatalf("docile transporter did not demote to canvasser of the new nest: nest=%d active=%v", c.nest, c.active)
	}
	if c.Decided() {
		t.Fatal("demoted transporter still reports decided")
	}
}

func TestApproxNZeroDeltaMatchesSimple(t *testing.T) {
	t.Parallel()
	// δ = 0 must reproduce Algorithm 3 exactly, draw for draw.
	env := sim.MustEnvironment([]float64{1, 0, 1})
	const n = 96
	for seed := uint64(1); seed <= 3; seed++ {
		plain, err := core.Run(Simple{}, core.RunConfig{N: n, Env: env, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		approx, err := core.Run(ApproxN{}, core.RunConfig{N: n, Env: env, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Rounds != approx.Rounds || plain.Winner != approx.Winner {
			t.Fatalf("seed %d: δ=0 diverged from simple: %+v vs %+v", seed, plain, approx)
		}
	}
}

func TestApproxNToleratesLargeError(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0, 1, 0})
	a := ApproxN{Delta: 0.5}
	solved := 0
	const reps = 8
	for seed := uint64(1); seed <= reps; seed++ {
		res := runAlgo(t, a, 200, env, seed, 0)
		if res.Solved && env.Good(res.Winner) {
			solved++
		}
	}
	if solved < reps-1 {
		t.Fatalf("solved only %d/%d with ±50%% error in n", solved, reps)
	}
}

func TestApproxNBuilderValidation(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1})
	if _, err := (ApproxN{Delta: -0.1}).Build(5, env, testSrc(1)); err == nil {
		t.Fatal("negative delta accepted")
	}
	if _, err := (ApproxN{Delta: 1}).Build(5, env, testSrc(1)); err == nil {
		t.Fatal("delta >= 1 accepted")
	}
	if _, err := (ApproxN{}).Build(0, env, testSrc(1)); err == nil {
		t.Fatal("zero colony accepted")
	}
	if _, err := NewApproxNAnt(0, testKey(1), 0); err == nil {
		t.Fatal("zero estimate accepted")
	}
}

// buildTransporter drives a fresh QuorumAnt through search, one recruit round
// and one assess round far above its threshold, returning it in transport
// mode with the given docility.
func buildTransporter(t *testing.T, seed uint64, docility float64) *QuorumAnt {
	t.Helper()
	a := NewQuorumAnt(100, testKey(seed), 0, 2.0, 3, docility, nil)
	a.Act(1)
	a.Observe(1, sim.Outcome{Nest: 1, Count: 3, Quality: 1})
	a.Act(2)
	a.Observe(2, sim.Outcome{Nest: 1})
	a.Act(3)
	a.Observe(3, sim.Outcome{Nest: 1, Count: 50})
	if !a.transport {
		t.Fatal("setup: ant did not reach quorum")
	}
	return a
}

// TestQuorumDocilityBoundaries pins the docility coin at its endpoints. A
// captured transporter with docility exactly 1 always submits and one with
// docility exactly 0 never does, whatever its keyed word: the coin rejects
// at p <= 0 and accepts at p >= 1. (The public builder defaults docility 0
// to 0.25; the field is set directly to reach the boundary.)
func TestQuorumDocilityBoundaries(t *testing.T) {
	t.Parallel()
	for seed := uint64(41); seed < 241; seed++ {
		always := buildTransporter(t, seed, 0.5)
		always.docility = 1
		always.Act(4)
		always.Observe(4, sim.Outcome{Nest: 2, Recruited: true})
		if always.transport || always.nest != 2 || !always.active {
			t.Fatalf("seed %d: docility-1 transporter did not submit: transport=%v nest=%d active=%v",
				seed, always.transport, always.nest, always.active)
		}

		never := buildTransporter(t, seed, 0.5)
		never.docility = 0
		never.Act(4)
		never.Observe(4, sim.Outcome{Nest: 2, Recruited: true})
		if !never.transport || never.nest != 1 {
			t.Fatalf("seed %d: docility-0 transporter submitted: transport=%v nest=%d",
				seed, never.transport, never.nest)
		}
	}
}

// TestQuorumTransporterSelfCaptureExclusion pins the self-pair exclusion: a
// transporter whose recruit round self-paired (SelfPaired and Succeeded set,
// Recruited clear — the matcher drew the ant itself) was NOT captured, so it
// keeps transporting to its own nest. The batch engine's capturedBy[slot] ==
// slot convention encodes the same exclusion.
func TestQuorumTransporterSelfCaptureExclusion(t *testing.T) {
	t.Parallel()
	a := buildTransporter(t, 43, 0.25)
	a.Act(4)
	a.Observe(4, sim.Outcome{Nest: 1, Count: 60, SelfPaired: true, Succeeded: true})
	if !a.transport || a.nest != 1 {
		t.Fatalf("self-paired transporter changed state: transport=%v nest=%d", a.transport, a.nest)
	}
}
