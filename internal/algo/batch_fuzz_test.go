package algo

import (
	"fmt"
	"strings"
	"testing"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/faults"
	"github.com/gmrl/househunt/internal/nest"
	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// fuzzDiffCase derives a bounded differential-harness configuration from raw
// fuzz words: the algorithm (all ten compiled forms — quorum/transport, noisy
// perception and the spreader included), colony size, nest count, binary or
// graded quality vector, the extension parameters and the recruitment matcher
// (default Algorithm 1 or a stock ablation) are all decoded from the inputs,
// so the fuzzer explores the same space as randomDiffCases but steered by
// coverage. The decoding is total — every input maps to a valid case — which
// keeps the target mutation-friendly.
func fuzzDiffCase(seed uint64, algoPick, nRaw, kRaw, qualBits, param uint16) diffCase {
	n := 4 + int(nRaw%60)
	maxRounds := 48
	if nRaw&0x8000 != 0 {
		// Big-colony probe: the high bit retargets n to straddle the removed
		// 2^16 fast-path ceiling (65532..65541), so the fuzzer exercises the
		// table/reciprocal crossover on both sides and exactly at the
		// boundary. A short budget keeps the 65k-ant scalar oracle fast.
		n = batchCeiling - 4 + int(nRaw%10)
		maxRounds = 10
	}
	k := 1 + int(kRaw%5)
	quals := make([]float64, k)
	anyGood := false
	for j := 0; j < k; j++ {
		if qualBits&(1<<j) != 0 {
			quals[j] = 1
			anyGood = true
		}
	}
	if !anyGood {
		quals[int(qualBits)%k] = 1 // environments need at least one good nest
	}
	if param%3 == 1 {
		// Graded qualities: deterministic non-binary values derived from the
		// inputs, exercising the quality-weighted and threshold opcodes away
		// from the {0, 1} corners.
		for j := range quals {
			if quals[j] > 0 {
				quals[j] = 0.1 + 0.8*float64((int(param/3)+j*7)%100)/100
			}
		}
	}
	var a core.Algorithm
	switch algoPick % 10 {
	case 0:
		a = Simple{}
	case 1:
		a = Simple{} // repeats case 0 so the checked-in corpus decodes unchanged
	case 2:
		a = Optimal{}
	case 3:
		a = Optimal{Literal: true}
	case 4:
		a = Adaptive{Tau: 1 + int(param%4), FloorDiv: float64(2 + param%7)}
	case 5:
		a = QualityAware{}
	case 6:
		a = ApproxN{Delta: float64(param%900) / 1000}
	case 7:
		// Quorum: multiplier 1.1..2.85, carry 1..4, docility 0.1..1.0, a flip
		// assessor on a third of the inputs — covering the carry-aware
		// matching, the docility draw and noisy assessment.
		q := Quorum{
			Multiplier: 1.1 + float64(param%8)*0.25,
			Carry:      1 + int(param/8)%4,
			Docility:   float64(1+param%10) / 10,
		}
		if param%3 == 2 {
			q.Assessor = nest.FlipAssessor{P: float64(param%25) / 100}
		}
		a = q
	case 8:
		// Noisy: relative count noise on three quarters of the inputs (the
		// rest run exact estimation, the zero-noise degenerate), plus a flip
		// assessor on a fifth.
		no := Noisy{}
		if param%4 != 0 {
			no.Counter = nest.RelativeNoiseCounter{Sigma: float64(param%40) / 100}
		}
		if param%5 == 1 {
			no.Assessor = nest.FlipAssessor{P: float64(param%20) / 100}
		}
		a = no
	case 9:
		// Spreader: 1..16 seed searchers, or the everyone-searches variant on
		// a fifth of the inputs. The spreading process compiles only for
		// environments with exactly one good nest, so the quality vector is
		// thinned to its first good entry (the decode stays total).
		if param%5 == 4 {
			a = Spreader{SearchAll: true}
		} else {
			a = Spreader{Seeds: 1 + int(param%16)}
		}
		seen := false
		for j := range quals {
			if quals[j] > 0 {
				if seen {
					quals[j] = 0
				}
				seen = true
			}
		}
	}
	// The high algorithm-pick bits select the pairing model. The ablation
	// matchers implement no MatchCarry, so a transporting quorum case is
	// demoted to tandem-only carry — mirroring core.CompileForBatch's gate,
	// which routes carry > 1 ablation configs to the scalar engine.
	matcher := ""
	switch (algoPick / 10) % 3 {
	case 1:
		matcher = "simultaneous"
	case 2:
		matcher = "rendezvous"
	}
	if q, isQuorum := a.(Quorum); isQuorum && matcher != "" {
		q.Carry = 1
		a = q
	}
	return diffCase{
		name:      fmt.Sprintf("fuzz/%s%s/n%d/k%d", a.Name(), matcher, n, k),
		algo:      a,
		n:         n,
		env:       sim.MustEnvironment(quals),
		seeds:     []uint64{seed},
		maxRounds: maxRounds,
		matcher:   matcher,
	}
}

// batchCeiling mirrors sim's batchTableMaxN — the old fast-path ceiling, now
// only the crossover from tabled to reciprocal thresholds.
const batchCeiling = 1 << 16

// FuzzBatchEquivalence fuzzes compiled-program execution against the scalar
// oracle: any input on which the batch engine's per-round populations or
// commitments diverge from the scalar agents is a bug. The checked-in corpus
// under testdata/fuzz seeds one representative case per compiled algorithm;
// CI runs a short -fuzz smoke on top of the corpus replay that plain go test
// performs.
func FuzzBatchEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(28), uint16(1), uint16(1), uint16(0))    // simple, k=2
	f.Add(uint64(7), uint16(2), uint16(60), uint16(3), uint16(5), uint16(0))    // optimal, k=4
	f.Add(uint64(42), uint16(3), uint16(12), uint16(0), uint16(0), uint16(2))   // optimal literal, k=1
	f.Add(uint64(9), uint16(4), uint16(40), uint16(2), uint16(3), uint16(13))   // adaptive, graded qualities
	f.Add(uint64(11), uint16(5), uint16(50), uint16(3), uint16(9), uint16(7))   // quality-aware, graded
	f.Add(uint64(13), uint16(6), uint16(33), uint16(2), uint16(7), uint16(450)) // approxn, δ = 0.45
	f.Add(uint64(17), uint16(6), uint16(24), uint16(1), uint16(2), uint16(0))   // approxn, δ = 0
	f.Add(uint64(19), uint16(7), uint16(40), uint16(1), uint16(3), uint16(4))   // quorum, M=2.1 carry 1 docility 0.5
	f.Add(uint64(23), uint16(7), uint16(36), uint16(2), uint16(3), uint16(9))   // quorum, carry 2, full docility
	f.Add(uint64(29), uint16(8), uint16(44), uint16(2), uint16(5), uint16(13))  // noisy, σ = 0.13
	f.Add(uint64(31), uint16(8), uint16(30), uint16(1), uint16(1), uint16(0))   // noisy, zero noise (exact degenerate)
	f.Add(uint64(37), uint16(10), uint16(40), uint16(2), uint16(3), uint16(0))  // simple + simultaneous ablation
	f.Add(uint64(41), uint16(22), uint16(36), uint16(2), uint16(3), uint16(0))  // optimal + rendezvous ablation
	f.Add(uint64(43), uint16(17), uint16(32), uint16(1), uint16(1), uint16(4))  // quorum (carry demoted to 1) + simultaneous
	f.Add(uint64(47), uint16(25), uint16(28), uint16(2), uint16(5), uint16(9))  // quality-aware + rendezvous, graded
	f.Add(uint64(53), uint16(9), uint16(40), uint16(2), uint16(0), uint16(3))   // spreader, 4 seed searchers
	f.Add(uint64(59), uint16(9), uint16(28), uint16(1), uint16(1), uint16(9))   // spreader, everyone searches
	// Big-colony seeds (high nRaw bit): one cell below, at, and above the
	// removed 2^16 ceiling, covering the population, quality-scaled and
	// adaptive recruit kernels across the table/reciprocal crossover.
	f.Add(uint64(61), uint16(0), uint16(0x8004), uint16(1), uint16(1), uint16(0))  // simple, n=65534
	f.Add(uint64(67), uint16(5), uint16(0x8006), uint16(2), uint16(3), uint16(13)) // quality-aware, n=65536, graded
	f.Add(uint64(71), uint16(4), uint16(0x8000), uint16(1), uint16(1), uint16(2))  // adaptive, n=65540
	f.Fuzz(func(t *testing.T, seed uint64, algoPick, nRaw, kRaw, qualBits, param uint16) {
		assertTraceEquivalence(t, fuzzDiffCase(seed, algoPick, nRaw, kRaw, qualBits, param))
	})
}

// fuzzFaultSpec decodes an always-enabled fault plan from a raw fuzz word:
// two-bit intensity fields for the crash, Byzantine and sleep fractions (an
// all-zero decode falls back to a 10% crash plan so every input actually
// exercises the fault lanes), window bits for the scheduling horizons, and a
// small salt family. Total, like fuzzDiffCase.
func fuzzFaultSpec(faultRaw uint16) faults.Spec {
	spec := faults.Spec{
		CrashFraction:     float64(faultRaw%4) * 0.08,
		CrashWindow:       5 + int((faultRaw/64)%40),
		ByzantineFraction: float64((faultRaw/4)%4) * 0.05,
		SleepFraction:     float64((faultRaw/16)%4) * 0.08,
		SleepWindow:       5 + int((faultRaw/128)%40),
		Salt:              uint64(faultRaw%7) + 11,
	}
	if !spec.Enabled() {
		spec.CrashFraction = 0.1
	}
	return spec
}

// FuzzBatchFaultEquivalence fuzzes the fault lanes against the scalar fault
// wrappers: the decoded case runs with a crash/Byzantine/sleep adversary
// injected on BOTH sides (faults.Spec wrapping the scalar colony, the same
// spec compiled into the batch program), and any divergence in per-round
// populations, commitments or the faulty census is a bug. The corpus seeds
// cover each fault class alone and mixed plans over representative
// algorithms, the spreader and an ablation matcher.
func FuzzBatchFaultEquivalence(f *testing.F) {
	f.Add(uint64(3), uint16(0), uint16(40), uint16(1), uint16(1), uint16(0), uint16(2))      // simple + 16% crash
	f.Add(uint64(5), uint16(2), uint16(48), uint16(3), uint16(5), uint16(0), uint16(8))      // optimal + 10% byzantine
	f.Add(uint64(7), uint16(4), uint16(36), uint16(2), uint16(3), uint16(13), uint16(32))    // adaptive + 16% sleep, graded
	f.Add(uint64(11), uint16(7), uint16(40), uint16(1), uint16(3), uint16(4), uint16(149))   // quorum + mixed crash/byzantine
	f.Add(uint64(13), uint16(8), uint16(44), uint16(2), uint16(5), uint16(13), uint16(54))   // noisy + mixed byzantine/sleep
	f.Add(uint64(17), uint16(9), uint16(40), uint16(2), uint16(0), uint16(3), uint16(18))    // spreader + sleep
	f.Add(uint64(19), uint16(10), uint16(36), uint16(2), uint16(3), uint16(0), uint16(1))    // simple + simultaneous + crash
	f.Add(uint64(23), uint16(5), uint16(50), uint16(3), uint16(9), uint16(7), uint16(214))   // quality-aware + all three classes
	f.Add(uint64(29), uint16(0), uint16(0x8006), uint16(1), uint16(1), uint16(0), uint16(2)) // simple + crash at n=65536, the ceiling cell
	f.Fuzz(func(t *testing.T, seed uint64, algoPick, nRaw, kRaw, qualBits, param, faultRaw uint16) {
		c := fuzzDiffCase(seed, algoPick, nRaw, kRaw, qualBits, param)
		c.faults = fuzzFaultSpec(faultRaw)
		c.name += "+faults"
		assertTraceEquivalence(t, c)
	})
}

// fuzzSchedule decodes an adaptive adversary from a raw fuzz word: the stock
// schedules with fuzzed parameters plus the kitchen-sink stress adversary
// (every op kind, per-ant adversary-stream draws). Total, like the other
// decoders.
func fuzzSchedule(schedRaw uint16) (func() faults.Schedule, string) {
	switch schedRaw % 4 {
	case 0:
		per, budget := 1+int((schedRaw/4)%3), 2+int((schedRaw/16)%30)
		return func() faults.Schedule { return &faults.TargetedCrash{PerRound: per, Budget: budget} }, "targeted"
	case 1:
		return func() faults.Schedule { return &faults.AdaptiveLurer{} }, "lurer"
	case 2:
		p := 0.01 + float64((schedRaw/4)%50)/500
		mean := 1 + float64((schedRaw/256)%12)
		return func() faults.Schedule { return faults.Churn{CrashProb: p, MeanDowntime: mean} }, "churn"
	default:
		return func() faults.Schedule { return stressSchedule{} }, "stress"
	}
}

// FuzzBatchAdaptiveFaultEquivalence fuzzes the adaptive fault-scheduling
// subsystem end to end: the decoded case runs with a static fault plan AND an
// adaptive schedule on both engines (the scalar schedule controller driven
// from the engine's round hook against the batch lane's mutation pass), and
// any divergence in per-round populations or commitments is a bug — in the
// snapshot semantics, the adversary-stream consumption, or the
// crash-recovery re-entry. The corpus covers each stock schedule, the stress
// adversary (every op kind), a recovery-heavy churn cell (one-round mean
// downtime), a non-default adversary salt, and the 2^16 ceiling-boundary
// colony.
func FuzzBatchAdaptiveFaultEquivalence(f *testing.F) {
	f.Add(uint64(3), uint16(0), uint16(40), uint16(1), uint16(1), uint16(0), uint16(2), uint16(16))       // simple + crash + targeted decapitation
	f.Add(uint64(5), uint16(2), uint16(48), uint16(3), uint16(5), uint16(0), uint16(8), uint16(5))        // optimal + byzantine + adaptive lurer
	f.Add(uint64(7), uint16(7), uint16(40), uint16(1), uint16(3), uint16(4), uint16(149), uint16(36))     // quorum + mixed faults + targeted
	f.Add(uint64(11), uint16(4), uint16(36), uint16(2), uint16(3), uint16(13), uint16(32), uint16(102))   // adaptive + sleep + recovery-heavy churn (mean downtime 1)
	f.Add(uint64(13), uint16(8), uint16(44), uint16(2), uint16(5), uint16(13), uint16(54), uint16(3))     // noisy + mixed + stress (all op kinds)
	f.Add(uint64(17), uint16(5), uint16(50), uint16(3), uint16(9), uint16(7), uint16(214), uint16(1))     // quality-aware, graded + lurer
	f.Add(uint64(19), uint16(10), uint16(36), uint16(2), uint16(3), uint16(0), uint16(1), uint16(0x8003)) // simple + simultaneous + stress, salted adversary stream
	f.Add(uint64(23), uint16(9), uint16(40), uint16(2), uint16(0), uint16(3), uint16(18), uint16(406))    // spreader + sleep + churn
	f.Add(uint64(29), uint16(0), uint16(0x8006), uint16(1), uint16(1), uint16(0), uint16(2), uint16(102)) // simple + crash + churn at n=65536, the ceiling cell
	f.Fuzz(func(t *testing.T, seed uint64, algoPick, nRaw, kRaw, qualBits, param, faultRaw, schedRaw uint16) {
		c := fuzzDiffCase(seed, algoPick, nRaw, kRaw, qualBits, param)
		c.faults = fuzzFaultSpec(faultRaw)
		sched, tag := fuzzSchedule(schedRaw)
		if tag == "lurer" && c.faults.ByzantineFraction == 0 {
			// A lurer schedule is a no-op without Byzantine ants to re-aim.
			c.faults.ByzantineFraction = 0.1
		}
		if schedRaw&0x8000 != 0 {
			c.faults.ScheduleSalt = uint64(schedRaw)
		}
		c.sched = sched
		c.name += "+sched-" + tag
		assertTraceEquivalence(t, c)
	})
}

// scriptSchedule is a schedule read off raw fuzz bytes: each op fires at the
// end of its round. Nothing filters the ops, so they name any kind byte, any
// ant and any nest, and the engines' eligibility checks see every invalid
// op a user schedule could emit.
type scriptSchedule []scriptOp

type scriptOp struct {
	round int
	op    sim.FaultOp
}

// decodeScript reads four bytes per op: the round (1..maxRounds), the kind
// byte as is, the ant as a signed byte (so -128..127 covers negative ants
// and ants at or past n) and the nest byte as is (0 and k+1 included).
func decodeScript(raw []byte, maxRounds int) scriptSchedule {
	var s scriptSchedule
	for ; len(raw) >= 4; raw = raw[4:] {
		s = append(s, scriptOp{
			round: 1 + int(raw[0])%maxRounds,
			op:    sim.FaultOp{Kind: sim.FaultOpKind(raw[1]), Ant: int32(int8(raw[2])), Nest: sim.NestID(raw[3])},
		})
	}
	return s
}

func (scriptSchedule) Name() string { return "script" }

func (s scriptSchedule) Step(v sim.ColonyView, _ *rng.Source, ops []sim.FaultOp) []sim.FaultOp {
	for _, o := range s {
		if o.round == v.Round() {
			ops = append(ops, o.op)
		}
	}
	return ops
}

// FuzzScheduleOps drives both engines' schedule passes with arbitrary ops:
// the scalar controller's hook and the batch lane's applySchedule, with its
// crashAnt and restartAnt transitions. Either both engines finish with
// bit-identical per-round populations and censuses, or both fail at the same
// round with the same text after `schedule "script": ` (for example
// `restart(5): ant is not crashed`), having agreed on every round before it.
// The case decodes as in FuzzBatchFaultEquivalence, with colonies kept small,
// plus the script; the checked-in corpus holds one script per rejection and
// two valid crash → restart → relocate scripts whose restarts come after the
// ants drew from their streams.
func FuzzScheduleOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, algoPick, nRaw, kRaw, qualBits, param, faultRaw uint16, script []byte) {
		c := fuzzDiffCase(seed, algoPick, nRaw&0x7fff, kRaw, qualBits, param)
		c.faults = fuzzFaultSpec(faultRaw)
		ops := decodeScript(script, c.maxRounds)
		c.sched = func() faults.Schedule { return ops }
		c.name += "+script"
		prog := compileCase(t, c)
		want, serr := scalarRun(t, c, seed)
		got, berr := batchRun(t, c, prog)
		if (serr == nil) != (berr == nil) {
			t.Fatalf("%s: scalar error %v, batch error %v", c.name, serr, berr)
		}
		if serr != nil {
			const marker = `schedule "script": `
			_, stext, sok := strings.Cut(serr.Error(), marker)
			_, btext, bok := strings.Cut(berr.Error(), marker)
			if !sok || !bok || stext != btext {
				t.Fatalf("%s: engines failed differently:\nscalar %v\nbatch  %v", c.name, serr, berr)
			}
		}
		// Equal round counts mean equal failing rounds: neither engine
		// records the round its schedule failed in.
		compareTraces(t, c, [][]roundRec{want}, got)
	})
}
