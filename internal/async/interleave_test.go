package async

import (
	"testing"

	"github.com/gmrl/househunt/internal/algo"
	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// clockProbe records the (round, kind) sequence its Act/Observe see, so the
// interleaving tests can pin the logical clock a Jitter presents to the
// wrapped protocol under arbitrary hold patterns.
type clockProbe struct {
	calls []probeCall
}

type probeCall struct {
	round   int
	observe bool
	nest    sim.NestID
}

func (p *clockProbe) Act(round int) sim.Action {
	p.calls = append(p.calls, probeCall{round: round})
	return sim.Search()
}

func (p *clockProbe) Observe(round int, out sim.Outcome) {
	p.calls = append(p.calls, probeCall{round: round, observe: true, nest: out.Nest})
}

// TestJitterScriptedInterleaving drives a wrapper through an explicit
// hold/pass script and pins the full call sequence the inner protocol sees:
// pass rounds arrive as a contiguous logical clock 1, 2, 3, ... regardless of
// where the holds fall, each logical Act is followed by its matching Observe
// carrying the engine outcome of the SAME engine round, and held-round
// outcomes are dropped entirely.
func TestJitterScriptedInterleaving(t *testing.T) {
	t.Parallel()
	probe := &clockProbe{}
	j := &Jitter{inner: probe}
	script := []bool{false, true, false, true, true, false, false} // true = hold
	for r, hold := range script {
		round := r + 1
		if hold {
			j.initialHolds = 1 // schedule exactly this engine round as held
		}
		j.Act(round)
		// Tag the outcome with the engine round so the probe can prove which
		// engine round each logical observation came from.
		j.Observe(round, sim.Outcome{Nest: sim.NestID(round)})
	}
	// Pass rounds are engine rounds 1, 3, 6, 7 → logical rounds 1..4.
	want := []probeCall{
		{round: 1}, {round: 1, observe: true, nest: 1},
		{round: 2}, {round: 2, observe: true, nest: 3},
		{round: 3}, {round: 3, observe: true, nest: 6},
		{round: 4}, {round: 4, observe: true, nest: 7},
	}
	if len(probe.calls) != len(want) {
		t.Fatalf("inner saw %d calls %v, want %d", len(probe.calls), probe.calls, len(want))
	}
	for i, w := range want {
		if probe.calls[i] != w {
			t.Fatalf("call %d = %+v, want %+v (full sequence %v)", i, probe.calls[i], w, probe.calls)
		}
	}
	if j.logical != 4 {
		t.Fatalf("logical round = %d, want 4", j.logical)
	}
}

// TestJitterClockContiguousUnderRandomHolds runs a long random hold pattern
// and asserts the structural invariants of the interleaving: the inner clock
// is exactly 1..j.logical with no gaps, duplicates or reordering, and
// every Act/Observe pair shares one logical round.
func TestJitterClockContiguousUnderRandomHolds(t *testing.T) {
	t.Parallel()
	probe := &clockProbe{}
	j, err := NewJitter(probe, 0.4, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 2000
	for r := 1; r <= rounds; r++ {
		j.Act(r)
		j.Observe(r, sim.Outcome{Nest: 1})
	}
	if len(probe.calls) != 2*j.logical {
		t.Fatalf("inner saw %d calls, want %d (an act+observe per logical round)",
			len(probe.calls), 2*j.logical)
	}
	for i := 0; i < len(probe.calls); i += 2 {
		logical := i/2 + 1
		act, obs := probe.calls[i], probe.calls[i+1]
		if act.observe || !obs.observe {
			t.Fatalf("logical round %d: call order %+v, %+v — want act then observe", logical, act, obs)
		}
		if act.round != logical || obs.round != logical {
			t.Fatalf("logical round %d: inner clock jumped (act %d, observe %d)", logical, act.round, obs.round)
		}
	}
}

// TestPlanInterleavingDeterminism pins the wrapper's stream discipline at the
// colony level: a jittered run is a pure function of the seed, so replaying
// the identical configuration — per-ant hold streams Split from one source —
// must reproduce the round count and final census exactly, even though every
// ant follows a different hold pattern.
func TestPlanInterleavingDeterminism(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0, 1})
	run := func() core.Result {
		res, err := core.Run(algo.Simple{}, core.RunConfig{
			N: 150, Env: env, Seed: 31, MaxRounds: 3000,
			Wrap: core.WrapFunc((Plan{HoldP: 0.2, MaxDelay: 6}).Apply(rng.New(31).Split(101))),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Solved != b.Solved || a.Winner != b.Winner || a.Rounds != b.Rounds {
		t.Fatalf("replay diverged: (%v, %v, %v) vs (%v, %v, %v)",
			a.Solved, a.Winner, a.Rounds, b.Solved, b.Winner, b.Rounds)
	}
	for i := range a.FinalCensus.Committed {
		if a.FinalCensus.Committed[i] != b.FinalCensus.Committed[i] {
			t.Fatalf("replay census diverged at nest %d: %d vs %d",
				i, a.FinalCensus.Committed[i], b.FinalCensus.Committed[i])
		}
	}
}

// TestJitterFaultyDelegation pins composition with fault injection: the
// jitter wrapper must not hide an inner agent's faultiness from the census.
func TestJitterFaultyDelegation(t *testing.T) {
	t.Parallel()
	j := &Jitter{inner: &faultyProbe{}, initialHolds: 1}
	if !j.Faulty() {
		t.Fatal("jitter hid the inner agent's faultiness")
	}
	plain := &Jitter{inner: &clockProbe{}, initialHolds: 1}
	if plain.Faulty() {
		t.Fatal("jitter fabricated faultiness for a healthy inner agent")
	}
}

type faultyProbe struct{ clockProbe }

func (*faultyProbe) Faulty() bool { return true }
