package househunt

// This file is the benchmark harness mandated by DESIGN.md §5: one benchmark
// per experiment (E1-E24), each regenerating its EXPERIMENTS.md table at
// small scale and failing if the paper's claimed shape does not hold, plus
// engine micro-benchmarks (round latency and allocation behaviour at several
// colony sizes).
//
// Run everything:   go test -bench=. -benchmem
// One experiment:   go test -bench=BenchmarkE09 -benchmem
// Full-scale tables come from: go run ./cmd/hhbench -exp all -scale full

import (
	"testing"

	"github.com/gmrl/househunt/internal/algo"
	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/experiment"
	"github.com/gmrl/househunt/internal/faults"
	"github.com/gmrl/househunt/internal/nest"
	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// benchExperiment runs one suite experiment per iteration and reports its
// headline rounds metric when available. A violated shape fails the bench:
// these benchmarks double as executable regression tests for EXPERIMENTS.md.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rep, err := experiment.RunExperiment(id, experiment.ScaleSmall)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if !rep.Pass {
			b.Fatalf("%s: claimed shape violated:\n%s", id, rep)
		}
	}
}

// BenchmarkE01RecruitSuccess regenerates E1 (Lemma 2.1: recruiter success
// probability >= 1/16).
func BenchmarkE01RecruitSuccess(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE02IgnorantPersistence regenerates E2 (Lemma 3.1: ignorant ants
// stay ignorant w.p. >= 1/4 per round).
func BenchmarkE02IgnorantPersistence(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE03LowerBoundScaling regenerates E3 (Theorem 3.2: Ω(log n)
// spreading time).
func BenchmarkE03LowerBoundScaling(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE04PopulationDeltaSymmetry regenerates E4 (Lemma 4.1: Y symmetric
// about zero).
func BenchmarkE04PopulationDeltaSymmetry(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE05DropoutProbability regenerates E5 (Lemma 4.2: P[Y<0] >= 1/66).
func BenchmarkE05DropoutProbability(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE06OptimalScaling regenerates E6 (Theorem 4.3: Algorithm 2 is
// O(log n), insensitive to k).
func BenchmarkE06OptimalScaling(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE07InitialGap regenerates E7 (Lemma 5.4: E[ε] >= 1/(3(n-1))).
func BenchmarkE07InitialGap(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE08SmallNestExtinction regenerates E8 (Lemmas 5.8/5.9:
// sub-threshold nests die within O(k log n) rounds and never win).
func BenchmarkE08SmallNestExtinction(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE09SimpleScaling regenerates E9 (Theorem 5.11: Algorithm 3 is
// O(k log n)).
func BenchmarkE09SimpleScaling(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10AdaptiveSpeedup regenerates E10 (§6 boosted recruitment beats
// Simple at large k).
func BenchmarkE10AdaptiveSpeedup(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11QualityAware regenerates E11 (§6 non-binary qualities select a
// high-quality nest).
func BenchmarkE11QualityAware(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12NoiseResilience regenerates E12 (§6 unbiased perception noise
// is tolerated with graceful slowdown).
func BenchmarkE12NoiseResilience(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13FaultTolerance regenerates E13 (§6 crash/Byzantine tolerance).
func BenchmarkE13FaultTolerance(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14Asynchrony regenerates E14 (§6: Simple tolerates jitter,
// Optimal relies on synchrony).
func BenchmarkE14Asynchrony(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15HeadToHead regenerates E15 (the who-wins-where crossover).
func BenchmarkE15HeadToHead(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE16PairingAblation regenerates E16 (§2 remark: results persist
// under other natural pairing models).
func BenchmarkE16PairingAblation(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkE17PseudocodeAblation regenerates E17 (literal vs repaired
// Algorithm 2 Case 3; the literal pseudocode deadlocks).
func BenchmarkE17PseudocodeAblation(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkE18QuorumTransport regenerates E18 (quorum-gated transports and
// the speed-accuracy trade-off under noisy assessment).
func BenchmarkE18QuorumTransport(b *testing.B) { benchExperiment(b, "E18") }

// BenchmarkE19ApproxN regenerates E19 (§6 approximate knowledge of n).
func BenchmarkE19ApproxN(b *testing.B) { benchExperiment(b, "E19") }

// BenchmarkE20FailureDecay regenerates E20 (the theorems' w.h.p. form:
// failure rate at a fixed C·log n budget vanishes as n grows).
func BenchmarkE20FailureDecay(b *testing.B) { benchExperiment(b, "E20") }

// BenchmarkE21CompetingDecay regenerates E21 (geometric decay of competing
// nests, the mechanism of Theorem 4.3).
func BenchmarkE21CompetingDecay(b *testing.B) { benchExperiment(b, "E21") }

// BenchmarkE22CrashFraction regenerates E22 (§6 crash fraction vs convergence
// time, measured on the batch engine's fault lanes).
func BenchmarkE22CrashFraction(b *testing.B) { benchExperiment(b, "E22") }

// BenchmarkE23CorruptMinority regenerates E23 (§6 Byzantine lurers vs
// best-of-k accuracy, with the lure-saturation transition).
func BenchmarkE23CorruptMinority(b *testing.B) { benchExperiment(b, "E23") }

// BenchmarkE24IdlePool regenerates E24 (the sleeping-reserve emigration:
// sleepers are counted, so solved runs wait out the wake window).
func BenchmarkE24IdlePool(b *testing.B) { benchExperiment(b, "E24") }

// --- engine micro-benchmarks -------------------------------------------------

// buildBenchColony constructs a Simple colony mid-execution for round
// latency measurement.
func buildBenchColony(b *testing.B, n, k int) *sim.Engine {
	b.Helper()
	env, err := sim.Uniform(k, k)
	if err != nil {
		b.Fatal(err)
	}
	agents, err := (algo.Simple{}).Build(n, env, rng.New(1).Split(2))
	if err != nil {
		b.Fatal(err)
	}
	engine, err := sim.New(env, agents, sim.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	// Warm through the search round so steady-state rounds are measured.
	if err := engine.Step(); err != nil {
		b.Fatal(err)
	}
	return engine
}

// BenchmarkEngineRound measures steady-state synchronous round latency for
// Algorithm 3 colonies of increasing size (ns/round, allocs/round).
func BenchmarkEngineRound(b *testing.B) {
	for _, n := range []int{1024, 16384, 262144} {
		n := n
		b.Run(byteCount(n), func(b *testing.B) {
			engine := buildBenchColony(b, n, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := engine.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "ant-steps/s")
		})
	}
}

// byteCount renders n as a compact label (1k, 16k, 256k).
func byteCount(n int) string {
	switch {
	case n%(1<<20) == 0:
		return itoa(n>>20) + "M"
	case n%(1<<10) == 0:
		return itoa(n>>10) + "k"
	default:
		return itoa(n)
	}
}

// itoa avoids pulling strconv into the bench hot path imports.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// benchReplicateSweep measures a full replicate sweep (n=1024, k=4, R=32
// colonies to convergence) through experiment.MeasureConvergence on the
// selected algorithm and engine. The scalar and batch variants execute
// bit-identical replicates, so each pair is a before/after comparison of the
// batch engine; the acceptance floors are a 3x throughput gain for Algorithm 3
// (lockstep path) and 1.5x for Algorithm 2 (per-ant state column path).
func benchReplicateSweep(b *testing.B, a core.Algorithm, batch bool) {
	b.Helper()
	const (
		n    = 1024
		k    = 4
		reps = 32
	)
	env, err := sim.Uniform(k, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.RunConfig{N: n, Env: env, MaxRounds: 4000}
	experiment.SetBatchEngine(batch)
	defer experiment.SetBatchEngine(true)
	b.ReportAllocs()
	b.ResetTimer()
	totalRounds := 0.0
	for i := 0; i < b.N; i++ {
		pt, err := experiment.MeasureConvergence(a, cfg, reps, "bench-sweep")
		if err != nil {
			b.Fatal(err)
		}
		if pt.Solved == 0 {
			b.Fatal("sweep solved no replicates")
		}
		totalRounds += pt.Rounds.Mean*float64(pt.Solved) + float64(4000*(reps-pt.Solved))
	}
	b.ReportMetric(totalRounds*n/b.Elapsed().Seconds(), "ant-steps/s")
}

// BenchmarkReplicateSweepScalar is the Algorithm 3 scalar agent path baseline.
func BenchmarkReplicateSweepScalar(b *testing.B) { benchReplicateSweep(b, algo.Simple{}, false) }

// BenchmarkReplicateSweepBatch is the Algorithm 3 batch engine path (lockstep
// shared-phase kernels).
func BenchmarkReplicateSweepBatch(b *testing.B) { benchReplicateSweep(b, algo.Simple{}, true) }

// BenchmarkReplicateSweepScalarOptimal is the Algorithm 2 scalar baseline.
func BenchmarkReplicateSweepScalarOptimal(b *testing.B) {
	benchReplicateSweep(b, algo.Optimal{}, false)
}

// BenchmarkReplicateSweepBatchOptimal is the Algorithm 2 batch engine path
// (per-ant state column with outcome-dependent transitions).
func BenchmarkReplicateSweepBatchOptimal(b *testing.B) {
	benchReplicateSweep(b, algo.Optimal{}, true)
}

// BenchmarkReplicateSweepScalarAdaptive is the §6 boosted-rate scalar baseline.
func BenchmarkReplicateSweepScalarAdaptive(b *testing.B) {
	benchReplicateSweep(b, algo.Adaptive{}, false)
}

// BenchmarkReplicateSweepBatchAdaptive is the §6 boosted-rate batch path
// (lockstep with the per-ant phase-clock column).
func BenchmarkReplicateSweepBatchAdaptive(b *testing.B) {
	benchReplicateSweep(b, algo.Adaptive{}, true)
}

// BenchmarkReplicateSweepScalarQuality is the §6 non-binary-quality scalar
// baseline.
func BenchmarkReplicateSweepScalarQuality(b *testing.B) {
	benchReplicateSweep(b, algo.QualityAware{}, false)
}

// BenchmarkReplicateSweepBatchQuality is the §6 non-binary-quality batch path
// (lockstep with the quality-weighted draw).
func BenchmarkReplicateSweepBatchQuality(b *testing.B) {
	benchReplicateSweep(b, algo.QualityAware{}, true)
}

// BenchmarkReplicateSweepScalarApproxN is the §6 approximate-n scalar
// baseline at δ = 0.2.
func BenchmarkReplicateSweepScalarApproxN(b *testing.B) {
	benchReplicateSweep(b, algo.ApproxN{Delta: 0.2}, false)
}

// BenchmarkReplicateSweepBatchApproxN is the §6 approximate-n batch path
// (lockstep with the per-ant ñ column) at δ = 0.2.
func BenchmarkReplicateSweepBatchApproxN(b *testing.B) {
	benchReplicateSweep(b, algo.ApproxN{Delta: 0.2}, true)
}

// BenchmarkReplicateSweepScalarQuorum is the §6 quorum-transport scalar
// baseline (default multiplier 1.5, carry 3, docility 0.25).
func BenchmarkReplicateSweepScalarQuorum(b *testing.B) {
	benchReplicateSweep(b, algo.Quorum{}, false)
}

// BenchmarkReplicateSweepBatchQuorum is the §6 quorum-transport batch path
// (general per-ant path with carry-aware recruitment matching and the
// docility draw on capture).
func BenchmarkReplicateSweepBatchQuorum(b *testing.B) {
	benchReplicateSweep(b, algo.Quorum{}, true)
}

// BenchmarkReplicateSweepScalarNoisy is the §6 noisy-perception scalar
// baseline (relative count noise σ = 0.1).
func BenchmarkReplicateSweepScalarNoisy(b *testing.B) {
	benchReplicateSweep(b, algo.Noisy{Counter: nest.RelativeNoiseCounter{Sigma: 0.1}}, false)
}

// BenchmarkReplicateSweepBatchNoisy is the §6 noisy-perception batch path
// (lockstep with per-ant estimator hooks) at σ = 0.1.
func BenchmarkReplicateSweepBatchNoisy(b *testing.B) {
	benchReplicateSweep(b, algo.Noisy{Counter: nest.RelativeNoiseCounter{Sigma: 0.1}}, true)
}

// benchFaultedSweep measures a replicate sweep under a declarative fault spec
// (the adversary axis). On the batch engine the spec compiles to crash-round,
// Byzantine and sleep lanes on the general path; the scalar variant wraps
// agents in the same plan, so each pair is a before/after comparison of the
// fault lowering on bit-identical replicates.
func benchFaultedSweep(b *testing.B, a core.Algorithm, spec faults.Spec, good int, batch bool) {
	b.Helper()
	const (
		n    = 1024
		k    = 4
		reps = 32
	)
	env, err := sim.Uniform(k, good)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.RunConfig{N: n, Env: env, MaxRounds: 4000, Wrap: spec}
	experiment.SetBatchEngine(batch)
	defer experiment.SetBatchEngine(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, err := experiment.MeasureConvergence(a, cfg, reps, "bench-faulted")
		if err != nil {
			b.Fatal(err)
		}
		if pt.Solved == 0 {
			b.Fatal("faulted sweep solved no replicates")
		}
	}
}

// benchCrashSpec is the CI-gated faulted cell: 10% crash faults in a 64-round
// window.
var benchCrashSpec = faults.Spec{CrashFraction: 0.1, CrashWindow: 64, Salt: 6001}

// benchMixedSpec exercises the crash and sleep lanes together. Byzantine
// lurers are left out: they sustain a standing bad-nest population that
// defeats MeasureConvergence's unanimity gate at this scale (the E23
// saturation), and an unsolvable sweep measures nothing — the Byzantine
// lane's per-round cost is identical in kind and its lowering is pinned by
// the differential tests.
var benchMixedSpec = faults.Spec{CrashFraction: 0.08, CrashWindow: 32, SleepFraction: 0.1, SleepWindow: 32, Salt: 6002}

// BenchmarkFaultedSweepScalarCrash is the wrapped scalar baseline for the 10%
// crash cell.
func BenchmarkFaultedSweepScalarCrash(b *testing.B) {
	benchFaultedSweep(b, algo.Simple{}, benchCrashSpec, 2, false)
}

// BenchmarkFaultedSweepBatchCrash is the 10% crash cell on the batch engine's
// crash-round lanes.
func BenchmarkFaultedSweepBatchCrash(b *testing.B) {
	benchFaultedSweep(b, algo.Simple{}, benchCrashSpec, 2, true)
}

// The mixed cells run on a single good nest: late-waking sleepers can freeze
// a split between two equally good sites (the E24 finding), and a stalled
// sweep measures nothing.

// BenchmarkFaultedSweepScalarMixed is the wrapped scalar baseline with crash
// and sleep faults together.
func BenchmarkFaultedSweepScalarMixed(b *testing.B) {
	benchFaultedSweep(b, algo.Simple{}, benchMixedSpec, 1, false)
}

// BenchmarkFaultedSweepBatchMixed runs the crash and sleep lanes on the batch
// engine at once.
func BenchmarkFaultedSweepBatchMixed(b *testing.B) {
	benchFaultedSweep(b, algo.Simple{}, benchMixedSpec, 1, true)
}

// benchMatcherSweep measures a replicate sweep under a stock ablation matcher
// (the E16 axis). Since the matcher lowering these run on the batch engine;
// the scalar variant is the before picture.
func benchMatcherSweep(b *testing.B, newMatcher func() sim.Matcher, batch bool) {
	b.Helper()
	const (
		n    = 1024
		k    = 4
		reps = 32
	)
	env, err := sim.Uniform(k, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.RunConfig{N: n, Env: env, MaxRounds: 4000, NewMatcher: newMatcher}
	experiment.SetBatchEngine(batch)
	defer experiment.SetBatchEngine(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt, err := experiment.MeasureConvergence(algo.Simple{}, cfg, reps, "bench-matcher")
		if err != nil {
			b.Fatal(err)
		}
		if pt.Solved == 0 {
			b.Fatal("sweep solved no replicates")
		}
	}
}

// BenchmarkMatcherSweepScalarSimultaneous is the simultaneous-pairing
// ablation on the scalar agent path.
func BenchmarkMatcherSweepScalarSimultaneous(b *testing.B) {
	benchMatcherSweep(b, func() sim.Matcher { return &sim.SimultaneousMatcher{} }, false)
}

// BenchmarkMatcherSweepBatchSimultaneous is the simultaneous-pairing ablation
// compiled to the batch engine.
func BenchmarkMatcherSweepBatchSimultaneous(b *testing.B) {
	benchMatcherSweep(b, func() sim.Matcher { return &sim.SimultaneousMatcher{} }, true)
}

// BenchmarkMatcherSweepScalarRendezvous is the rendezvous-pairing ablation on
// the scalar agent path.
func BenchmarkMatcherSweepScalarRendezvous(b *testing.B) {
	benchMatcherSweep(b, func() sim.Matcher { return &sim.RendezvousMatcher{} }, false)
}

// BenchmarkMatcherSweepBatchRendezvous is the rendezvous-pairing ablation
// compiled to the batch engine.
func BenchmarkMatcherSweepBatchRendezvous(b *testing.B) {
	benchMatcherSweep(b, func() sim.Matcher { return &sim.RendezvousMatcher{} }, true)
}

// BenchmarkLargeColonyBatch runs one million-ant Algorithm 3 colony (k=16, 2
// good nests) per iteration through core.RunBatch on the default worker
// budget, so the single replicate shards across every core, and reports
// ns/ant-round. A -cpuprofile of it attributes the million-ant cell's time
// without the bench module:
//
//	go test -run '^$' -bench LargeColonyBatch -benchtime 4x -cpuprofile cpu.out .
func BenchmarkLargeColonyBatch(b *testing.B) {
	const (
		n = 1_000_000
		k = 16
	)
	env, err := sim.Uniform(k, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.RunConfig{N: n, Env: env, MaxRounds: 4000}
	b.ReportAllocs()
	b.ResetTimer()
	antRounds := 0.0
	for i := 0; i < b.N; i++ {
		res, ok, err := core.RunBatch(algo.Simple{}, cfg, []uint64{uint64(i + 1)})
		if err != nil || !ok {
			b.Fatalf("RunBatch: ok=%v err=%v", ok, err)
		}
		if !res[0].Solved {
			b.Fatal("million-ant colony did not converge")
		}
		antRounds += float64(n) * float64(res[0].Rounds)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/antRounds, "ns/ant-round")
}

// BenchmarkFullEmigration measures a complete emigration (search to
// unanimity) per iteration, the end-to-end number a library user feels.
func BenchmarkFullEmigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Run(
			WithColonySize(1024),
			WithBinaryNests(8, 4),
			WithAlgorithm(AlgorithmOptimal),
			WithSeed(uint64(i+1)),
		)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Solved {
			b.Fatal("emigration failed")
		}
	}
}
