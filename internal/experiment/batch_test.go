package experiment

import (
	"reflect"
	"testing"

	"github.com/gmrl/househunt/internal/algo"
	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/faults"
	"github.com/gmrl/househunt/internal/nest"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/workload"
)

// TestMeasureConvergenceBatchMatchesScalar is the experiment layer of the
// cross-engine differential harness: for every compiled algorithm — the
// Algorithm 3 family, both Algorithm 2 variants and the §6 extensions — a
// measurement taken on the batch fast path must aggregate to exactly the same
// ConvergencePoint as the scalar replicate loop, because per-replicate
// executions are bit-identical.
func TestMeasureConvergenceBatchMatchesScalar(t *testing.T) {
	binary, err := workload.Binary(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	graded := sim.MustEnvironment([]float64{0.3, 0.9, 0.2, 0})
	const reps = 24

	if !BatchEngineEnabled() {
		t.Fatal("batch engine should be enabled by default")
	}
	cases := []struct {
		algo core.Algorithm
		env  sim.Environment
	}{
		{algo.Simple{}, binary},
		{algo.Optimal{}, binary},
		{algo.Optimal{Literal: true}, binary},
		{algo.Adaptive{}, binary},
		{algo.QualityAware{}, graded},
		{algo.ApproxN{Delta: 0.25}, binary},
		{algo.Quorum{}, binary},
		{algo.Quorum{Multiplier: 2, Assessor: nest.FlipAssessor{P: 0.1}}, binary},
		{algo.Noisy{}, binary},
		{algo.Noisy{Counter: nest.RelativeNoiseCounter{Sigma: 0.2}}, binary},
	}
	for _, tc := range cases {
		cfg := core.RunConfig{N: 96, Env: tc.env, MaxRounds: 4000}
		SetBatchEngine(true)
		if _, ok, reason := core.CompileForBatch(tc.algo, cfg); !ok {
			t.Fatalf("%s: expected batch eligibility, got fallback: %s", tc.algo.Name(), reason)
		}
		batched, err := MeasureConvergence(tc.algo, cfg, reps, "batch-equiv")
		if err != nil {
			t.Fatal(err)
		}

		SetBatchEngine(false)
		scalar, err := MeasureConvergence(tc.algo, cfg, reps, "batch-equiv")
		SetBatchEngine(true)
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(batched, scalar) {
			t.Fatalf("%s: batch and scalar measurements diverge:\nbatch  %+v\nscalar %+v",
				tc.algo.Name(), batched, scalar)
		}
		// The literal Optimal variant can deadlock by design; every other
		// cell must solve replicates or the equivalence check is vacuous.
		if batched.Solved == 0 && !reflect.DeepEqual(tc.algo, algo.Optimal{Literal: true}) {
			t.Fatalf("%s: measurement solved no replicates; the equivalence check is vacuous", tc.algo.Name())
		}
	}
}

// TestMeasureConvergenceMatcherAblationsBatchMatchScalar is the experiment
// layer of the matcher-ablation lowering: an E16-style measurement with a
// stock cfg.NewMatcher must take the batch path and aggregate to exactly the
// scalar replicate loop's ConvergencePoint, for both the lockstep and the
// general execution paths.
func TestMeasureConvergenceMatcherAblationsBatchMatchScalar(t *testing.T) {
	env, err := workload.Binary(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	const reps = 12
	for _, tc := range []struct {
		name    string
		algo    core.Algorithm
		matcher func() sim.Matcher
	}{
		{"simple+simultaneous", algo.Simple{}, func() sim.Matcher { return &sim.SimultaneousMatcher{} }},
		{"simple+rendezvous", algo.Simple{}, func() sim.Matcher { return &sim.RendezvousMatcher{} }},
		{"optimal+simultaneous", algo.Optimal{}, func() sim.Matcher { return &sim.SimultaneousMatcher{} }},
		{"optimal+rendezvous", algo.Optimal{}, func() sim.Matcher { return &sim.RendezvousMatcher{} }},
	} {
		cfg := core.RunConfig{N: 96, Env: env, MaxRounds: 4000, NewMatcher: tc.matcher}
		if _, ok, reason := core.CompileForBatch(tc.algo, cfg); !ok {
			t.Fatalf("%s: expected batch eligibility, got fallback: %s", tc.name, reason)
		}
		SetBatchEngine(true)
		batched, err := MeasureConvergence(tc.algo, cfg, reps, "matcher-equiv")
		if err != nil {
			t.Fatal(err)
		}
		SetBatchEngine(false)
		scalar, err := MeasureConvergence(tc.algo, cfg, reps, "matcher-equiv")
		SetBatchEngine(true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched, scalar) {
			t.Fatalf("%s: batch and scalar ablation measurements diverge:\nbatch  %+v\nscalar %+v",
				tc.name, batched, scalar)
		}
		if batched.Solved == 0 {
			t.Fatalf("%s: measurement solved no replicates; the check is vacuous", tc.name)
		}
	}
}

// TestMeasureConvergenceFaultedBatchMatchesScalar extends the experiment-layer
// differential check along the adversary axis: a measurement under a
// faults.Spec wrapper must take the batch path (the spec compiles to fault
// lanes) and aggregate to exactly the scalar wrapped colony's
// ConvergencePoint.
func TestMeasureConvergenceFaultedBatchMatchesScalar(t *testing.T) {
	env, err := workload.Binary(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	single, err := workload.Binary(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	const reps = 16
	for _, tc := range []struct {
		name string
		algo core.Algorithm
		env  sim.Environment
		spec faults.Spec
	}{
		// Byzantine lures make full unanimity flicker for count-keyed
		// algorithms (Optimal's decision gate can starve forever), so the
		// Byzantine cell rides on the unanimity-by-commitment Simple family;
		// optimal+byzantine equivalence is still pinned per-round by the
		// algo-level differential grid.
		{"simple+crash", algo.Simple{}, env, faults.Spec{CrashFraction: 0.1, CrashWindow: 30, Salt: 11}},
		{"simple+byzantine", algo.Simple{}, env, faults.Spec{ByzantineFraction: 0.03, Salt: 12}},
		{"optimal+sleep", algo.Optimal{}, env, faults.Spec{SleepFraction: 0.15, SleepWindow: 30, Salt: 16}},
		{"adaptive+sleep", algo.Adaptive{}, env, faults.Spec{SleepFraction: 0.2, SleepWindow: 40, Salt: 13}},
		{"quorum+mixed", algo.Quorum{}, env, faults.Spec{CrashFraction: 0.08, CrashWindow: 24, ByzantineFraction: 0.04, SleepFraction: 0.08, SleepWindow: 24, Salt: 14}},
		{"spreader+crash", algo.Spreader{Seeds: 4}, single, faults.Spec{CrashFraction: 0.1, CrashWindow: 20, Salt: 15}},
	} {
		cfg := core.RunConfig{N: 96, Env: tc.env, MaxRounds: 4000, Wrap: tc.spec}
		if _, ok, reason := core.CompileForBatch(tc.algo, cfg); !ok {
			t.Fatalf("%s: expected batch eligibility under a fault spec, got fallback: %s", tc.name, reason)
		}
		SetBatchEngine(true)
		batched, err := MeasureConvergence(tc.algo, cfg, reps, "fault-equiv")
		if err != nil {
			t.Fatal(err)
		}
		SetBatchEngine(false)
		scalar, err := MeasureConvergence(tc.algo, cfg, reps, "fault-equiv")
		SetBatchEngine(true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched, scalar) {
			t.Fatalf("%s: faulted batch and scalar measurements diverge:\nbatch  %+v\nscalar %+v",
				tc.name, batched, scalar)
		}
		if batched.Solved == 0 {
			t.Fatalf("%s: measurement solved no replicates; the check is vacuous", tc.name)
		}
	}
}

// fallbackMatcher is a non-stock matcher (it delegates to Algorithm 1 so
// measurements still solve): the stock ablation models batch-compile since
// the matcher lowering, so forcing the scalar path needs a custom type.
type fallbackMatcher struct{ sim.AlgorithmOneMatcher }

func (fallbackMatcher) Name() string { return "fallback-test" }

// TestMeasureConvergenceScalarFallback exercises the fallback branch. Every
// house-hunting algorithm and every stock matcher now compiles, so the
// fallback is driven by a scalar-only configuration (a custom matcher type)
// instead of an uncompiled algorithm; the batch switch must not change its
// results either (it never engages).
func TestMeasureConvergenceScalarFallback(t *testing.T) {
	env, err := workload.Binary(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.RunConfig{
		N:   64,
		Env: env,
		// The custom matcher type keeps the measurement solving while
		// forcing the scalar path.
		NewMatcher: func() sim.Matcher { return &fallbackMatcher{} },
	}
	_, ok, reason := core.CompileForBatch(algo.Simple{}, cfg)
	if ok {
		t.Fatal("a custom-matcher config should have no batch path")
	}
	if reason == "" {
		t.Fatal("fallback must carry a reason")
	}
	pt, err := MeasureConvergence(algo.Simple{}, cfg, 8, "batch-fallback")
	if err != nil {
		t.Fatal(err)
	}
	if pt.Reps != 8 || pt.Solved == 0 {
		t.Fatalf("fallback measurement implausible: %+v", pt)
	}

	// The Spreader process compiles exactly when the environment has a single
	// good nest (its informed-spread branching equates "good outcome" with
	// "the target"): one good nest takes the batch path, several decline.
	single, err := workload.Binary(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, reason := core.CompileForBatch(algo.Spreader{}, core.RunConfig{N: 64, Env: single}); !ok {
		t.Fatalf("Spreader with one good nest declined the batch path: %q", reason)
	}
	multi, err := workload.Binary(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, reason := core.CompileForBatch(algo.Spreader{}, core.RunConfig{N: 64, Env: multi}); ok || reason == "" {
		t.Fatalf("Spreader with two good nests: ok=%v reason=%q, want scalar fallback with a reason", ok, reason)
	}
}
