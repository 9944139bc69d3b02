package algo

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/faults"
	"github.com/gmrl/househunt/internal/nest"
	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
)

// This file is the cross-engine differential harness: one shared set of
// generators and layer assertions through which every compiled algorithm —
// Simple (Algorithm 3), both Optimal variants (Algorithm 2), the §6
// extensions (Adaptive, QualityAware, ApproxN, Quorum, Noisy) and the §3
// lower-bound Spreader process — is pinned round-for-round bit-identical
// between the scalar agent engine and the batch struct-of-arrays engine,
// with and without an adversary (the faults.Spec axis: scalar fault wrappers
// against the batch engine's fault lanes). Three layers are asserted per
// case:
//
//	algo layer: CompileBatch yields a structurally valid program carrying the
//	            algorithm's name (compileCase);
//	sim layer:  per-round populations and commitment censuses coincide
//	            exactly for the full round budget (assertTraceEquivalence);
//	core layer: core.RunBatch returns exactly the Results per-seed core.Run
//	            produces, censuses and decided counts included
//	            (assertRunnerEquivalence).
//
// The experiment layer (MeasureConvergence aggregation) is pinned in
// internal/experiment/batch_test.go over the same algorithm inventory, and
// FuzzBatchEquivalence in batch_fuzz_test.go drives the sim layer from raw
// fuzz words.

// diffCase is one configuration of the differential harness.
type diffCase struct {
	name      string
	algo      core.Algorithm
	n         int
	env       sim.Environment
	seeds     []uint64
	maxRounds int
	// matcher selects a stock recruitment-pairing model by name
	// ("simultaneous", "rendezvous", "algorithm1"); empty means the default
	// Algorithm 1 pairing with no cfg.NewMatcher set. Non-empty cases pin
	// the compiled matcher ablations against the scalar engine running the
	// same model.
	matcher string
	// shards, when positive, forces the batch lane to split its colony
	// across that many shard goroutines (sim.WithBatchShards). Sharding is
	// contractually invisible — every shard count must reproduce the scalar
	// trace bit for bit — so sharded cases assert the same equivalence as
	// unsharded ones, just through the parallel phase kernels.
	shards int
	// faults, when enabled, injects the same declarative adversary into both
	// engines: the scalar trace wraps the built agents via Spec.WrapAgents
	// and the batch trace attaches the lowered spec to the program's
	// parameters — the two lowerings the spec pins bit-identical.
	faults faults.Spec
	// sched, when non-nil, attaches an adaptive adversary on top of the
	// static spec: the factory lands on Spec.NewSchedule for both engines,
	// and a Rebuild closure over the case's builder is supplied so
	// restart-emitting schedules work on the scalar side too (the batch lane
	// revives ants from its own columns).
	sched func() faults.Schedule
}

// spec materializes the case's effective fault spec: the static fractions
// plus, when the case carries an adaptive schedule, the factory and the
// scalar-side Rebuild closure.
func (c diffCase) spec() faults.Spec {
	s := c.faults
	if c.sched != nil {
		s.NewSchedule = c.sched
		a, n, env := c.algo, c.n, c.env
		s.Rebuild = func(seed uint64) ([]sim.Agent, error) {
			return a.Build(n, env, rng.New(seed).Split(2))
		}
	}
	return s
}

// stockMatcher builds a fresh stock matcher instance by name.
func stockMatcher(name string) sim.Matcher {
	switch name {
	case "simultaneous":
		return &sim.SimultaneousMatcher{}
	case "rendezvous":
		return &sim.RendezvousMatcher{}
	default:
		return &sim.AlgorithmOneMatcher{}
	}
}

// stressSchedule is the harness's kitchen-sink adversary: it exercises every
// FaultOp kind and every ColonyView accessor in one schedule, drawing one
// adversary-stream Bernoulli per eligible ant so the two engines' stream
// consumption is stressed as hard as their snapshot semantics. Crashes gate
// on the colony staying half alive (reads Alive), restarts are frequent
// (recovery churn), and every seventh round the Byzantine ants re-aim at the
// highest-numbered bad nest (reads Round/K/Quality).
type stressSchedule struct{}

func (stressSchedule) Name() string { return "stress" }

func (stressSchedule) Step(v sim.ColonyView, adv *rng.Source, ops []sim.FaultOp) []sim.FaultOp {
	n := v.N()
	for i := 0; i < n; i++ {
		switch v.Status(i) {
		case sim.AntLive:
			if v.Alive() > n/2 && v.Committed(i) != sim.Home && adv.Bernoulli(0.05) {
				ops = append(ops, sim.FaultOp{Kind: sim.FaultCrash, Ant: int32(i)})
			}
		case sim.AntCrashed:
			if adv.Bernoulli(0.25) {
				ops = append(ops, sim.FaultOp{Kind: sim.FaultRestart, Ant: int32(i)})
			}
		case sim.AntByzantine:
			if v.Round()%7 == 0 {
				for nest := v.K(); nest >= 1; nest-- {
					if v.Quality(sim.NestID(nest)) == 0 {
						ops = append(ops, sim.FaultOp{Kind: sim.FaultRelocate, Ant: int32(i), Nest: sim.NestID(nest)})
						break
					}
				}
			}
		}
	}
	return ops
}

// roundRec is one round's end-of-round populations (index 0 = home) and
// commitment census (index 0 = uncommitted).
type roundRec struct {
	counts []int
	commit []int
}

// compiledInventory is the full set of algorithms advertising a compiled
// form, with representative parameterizations of the §6 extensions.
func compiledInventory() []core.Algorithm {
	return []core.Algorithm{
		Simple{},
		Optimal{},
		Optimal{Literal: true},
		Adaptive{},
		Adaptive{Tau: 1, FloorDiv: 8},
		QualityAware{},
		ApproxN{},
		ApproxN{Delta: 0.3},
		ApproxN{Delta: 0.75},
		Quorum{},
		Quorum{Multiplier: 2, Carry: 1, Docility: 1},
		Quorum{Assessor: nest.FlipAssessor{P: 0.15}},
		Noisy{},
		Noisy{Counter: nest.RelativeNoiseCounter{Sigma: 0.2}, Assessor: nest.GaussianAssessor{Sigma: 0.1}},
		Spreader{},
		Spreader{Seeds: 8},
		Spreader{SearchAll: true},
	}
}

// compileCase is the algo-layer assertion: the algorithm must compile to a
// structurally valid program that carries its name.
func compileCase(t *testing.T, c diffCase) sim.Program {
	t.Helper()
	bc, ok := c.algo.(core.BatchCompilable)
	if !ok {
		t.Fatalf("%s: algorithm is not BatchCompilable", c.name)
	}
	prog, ok := bc.CompileBatch(c.n, c.env)
	if !ok {
		t.Fatalf("%s: did not compile for n=%d k=%d", c.name, c.n, c.env.K())
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("%s: compiled program invalid: %v", c.name, err)
	}
	if prog.Algorithm != c.algo.Name() {
		t.Errorf("%s: program carries name %q, want %q", c.name, prog.Algorithm, c.algo.Name())
	}
	return prog
}

// scalarTrace runs the scalar engine on each seed, recording per-round
// populations and commitment censuses; a step error is fatal.
func scalarTrace(t *testing.T, c diffCase) [][]roundRec {
	t.Helper()
	recs := make([][]roundRec, len(c.seeds))
	for si, seed := range c.seeds {
		var err error
		if recs[si], err = scalarRun(t, c, seed); err != nil {
			t.Fatalf("%s seed %d: scalar step: %v", c.name, seed, err)
		}
	}
	return recs
}

// scalarRun runs the scalar engine on one seed with the exact stream
// derivation the core runner uses (ant root = rng.New(seed).Split(2)),
// recording per-round populations and commitment censuses until the budget
// ends or a step fails; it returns the rounds recorded before the failure
// and the step's error.
func scalarRun(t *testing.T, c diffCase, seed uint64) ([]roundRec, error) {
	t.Helper()
	agents, err := c.algo.Build(c.n, c.env, rng.New(seed).Split(2))
	if err != nil {
		t.Fatalf("%s seed %d: build: %v", c.name, seed, err)
	}
	if spec := c.spec(); spec.Enabled() {
		if agents, err = spec.WrapAgents(seed, agents); err != nil {
			t.Fatalf("%s seed %d: wrap: %v", c.name, seed, err)
		}
	}
	opts := []sim.Option{sim.WithSeed(seed)}
	if c.matcher != "" {
		opts = append(opts, sim.WithMatcher(stockMatcher(c.matcher)))
	}
	eng, err := sim.New(c.env, agents, opts...)
	if err != nil {
		t.Fatalf("%s seed %d: engine: %v", c.name, seed, err)
	}
	var recs []roundRec
	for r := 0; r < c.maxRounds; r++ {
		if err := eng.Step(); err != nil {
			return recs, err
		}
		recs = append(recs, roundRec{
			counts: eng.Counts(),
			commit: core.TakeCensus(agents, c.env.K()).Committed,
		})
	}
	return recs, nil
}

// recorder is the recording sim.BatchObserver batchTrace runs under: it
// keeps every replicate's rounds in order. Lanes run replicates
// concurrently, so it locks.
type recorder struct {
	mu   sync.Mutex
	recs [][]roundRec
}

func (r *recorder) LaneObserver(int) sim.LaneObserver { return r }

func (r *recorder) ObserveRound(rep, _ int, counts, committed []int) {
	rec := roundRec{counts: append([]int(nil), counts...), commit: append([]int(nil), committed...)}
	r.mu.Lock()
	r.recs[rep] = append(r.recs[rep], rec)
	r.mu.Unlock()
}

func (r *recorder) ReplicateDone(int, *sim.BatchResult) {}

// batchTrace runs the compiled program on the batch engine with a recording
// observer; the window exceeding the budget keeps every replicate running
// all maxRounds rounds so traces line up with scalarTrace. A run error is
// fatal.
func batchTrace(t *testing.T, c diffCase, prog sim.Program) [][]roundRec {
	t.Helper()
	recs, err := batchRun(t, c, prog)
	if err != nil {
		t.Fatalf("%s: batch run: %v", c.name, err)
	}
	return recs
}

// batchRun is batchTrace returning the run's error: the records then hold
// each replicate's rounds up to the failing one.
func batchRun(t *testing.T, c diffCase, prog sim.Program) ([][]roundRec, error) {
	t.Helper()
	if fs, on := c.spec().BatchFaults(); on {
		prog.Params.Faults = fs
	}
	rec := &recorder{recs: make([][]roundRec, len(c.seeds))}
	opts := []sim.BatchOption{sim.WithBatchObserver(rec)}
	if c.matcher != "" {
		name := c.matcher
		opts = append(opts, sim.WithBatchMatcher(func() sim.Matcher { return stockMatcher(name) }))
	}
	if c.shards > 0 {
		opts = append(opts, sim.WithBatchShards(c.shards))
	}
	b, err := sim.NewBatch(c.env, prog, c.n, opts...)
	if err != nil {
		t.Fatalf("%s: batch: %v", c.name, err)
	}
	_, err = b.Run(c.seeds, c.maxRounds, c.maxRounds+1)
	return rec.recs, err
}

// compareTraces asserts two per-seed round traces are bit-identical.
func compareTraces(t *testing.T, c diffCase, want, got [][]roundRec) {
	t.Helper()
	for si, seed := range c.seeds {
		if len(got[si]) != len(want[si]) {
			t.Fatalf("%s seed %d: batch ran %d rounds, scalar %d", c.name, seed, len(got[si]), len(want[si]))
		}
		for r := range want[si] {
			if !reflect.DeepEqual(got[si][r], want[si][r]) {
				t.Fatalf("%s seed %d round %d diverged:\nbatch  counts=%v commit=%v\nscalar counts=%v commit=%v",
					c.name, seed, r+1,
					got[si][r].counts, got[si][r].commit,
					want[si][r].counts, want[si][r].commit)
			}
		}
	}
}

// assertTraceEquivalence is the sim-layer assertion: round-for-round
// bit-identical populations and commitments across the full budget.
func assertTraceEquivalence(t *testing.T, c diffCase) {
	t.Helper()
	prog := compileCase(t, c)
	compareTraces(t, c, scalarTrace(t, c), batchTrace(t, c, prog))
}

// assertRunnerEquivalence is the core-layer assertion: core.RunBatch must
// return exactly the Results per-seed core.Run produces — solved flags,
// winners, round counts, censuses and decided counts.
func assertRunnerEquivalence(t *testing.T, c diffCase) {
	t.Helper()
	cfg := core.RunConfig{N: c.n, Env: c.env, MaxRounds: 8 * c.maxRounds, StabilityWindow: 2, BatchShards: c.shards}
	if c.matcher != "" {
		name := c.matcher
		cfg.NewMatcher = func() sim.Matcher { return stockMatcher(name) }
	}
	if spec := c.spec(); spec.Enabled() {
		// The spec rides on cfg.Wrap for BOTH runners: core.Run applies the
		// scalar wrappers, core.RunBatch recognizes the BatchFaultWrapper and
		// compiles the fault lanes — the end-to-end routing this layer pins.
		cfg.Wrap = spec
	}
	batched, ok, err := core.RunBatch(c.algo, cfg, c.seeds)
	if err != nil {
		t.Fatalf("%s: RunBatch: %v", c.name, err)
	}
	if !ok {
		t.Fatalf("%s: expected batch eligibility", c.name)
	}
	for i, seed := range c.seeds {
		scfg := cfg
		scfg.Seed = seed
		want, err := core.Run(c.algo, scfg)
		if err != nil {
			t.Fatalf("%s seed %d: Run: %v", c.name, seed, err)
		}
		got := batched[i]
		if got.Solved != want.Solved || got.Winner != want.Winner ||
			got.Rounds != want.Rounds || got.WinnerQuality != want.WinnerQuality ||
			got.Algorithm != want.Algorithm {
			t.Fatalf("%s seed %d: batch %+v != scalar %+v", c.name, seed, got, want)
		}
		if !reflect.DeepEqual(got.FinalCensus.Committed, want.FinalCensus.Committed) ||
			got.FinalCensus.Total != want.FinalCensus.Total ||
			got.FinalCensus.Decided != want.FinalCensus.Decided ||
			got.FinalCensus.Faulty != want.FinalCensus.Faulty {
			t.Fatalf("%s seed %d: census diverged: batch %+v != scalar %+v",
				c.name, seed, got.FinalCensus, want.FinalCensus)
		}
	}
}

// assertDiffCase runs every layer of the harness on one case.
func assertDiffCase(t *testing.T, c diffCase) {
	t.Helper()
	assertTraceEquivalence(t, c)
	assertRunnerEquivalence(t, c)
}

// caseSampler is the generator randomDiffCases draws configurations from:
// xoshiro256** seeded by four splitmix64 outputs. Only the harness uses it,
// and its draws define the randomized grid, so it must not change.
type caseSampler struct{ s0, s1, s2, s3 uint64 }

func newCaseSampler(seed uint64) *caseSampler {
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	return &caseSampler{next(), next(), next(), next()}
}

func (c *caseSampler) Uint64() uint64 {
	result := bits.RotateLeft64(c.s1*5, 7) * 9
	t := c.s1 << 17
	c.s2 ^= c.s0
	c.s3 ^= c.s1
	c.s1 ^= c.s2
	c.s0 ^= c.s3
	c.s2 ^= t
	c.s3 = bits.RotateLeft64(c.s3, 45)
	return result
}

// Intn returns a uniform integer in [0, n) by Lemire's multiply-shift with
// rejection.
func (c *caseSampler) Intn(n int) int {
	un := uint64(n)
	hi, lo := bits.Mul64(c.Uint64(), un)
	if lo < un {
		for thresh := -un % un; lo < thresh; {
			hi, lo = bits.Mul64(c.Uint64(), un)
		}
	}
	return int(hi)
}

func (c *caseSampler) Float64() float64 {
	return float64(c.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bernoulli returns true with probability p; the harness only passes p in
// (0, 1).
func (c *caseSampler) Bernoulli(p float64) bool { return c.Float64() < p }

// randomDiffCases samples configurations from the full space the harness
// covers: every compiled algorithm (with randomized δ and schedule
// parameters), colony sizes, nest counts, binary and non-binary quality
// vectors, random seeds, round budgets and random fault plans (each lane's
// fraction, window and salt drawn independently on a third of the cases).
// The sampling is deterministic in metaSeed, so failures reproduce; bump the
// count or vary the seed locally for a deeper soak. It draws from
// caseSampler, not rng.Source, so the sampled grid (and every subtest name)
// stays put when the simulator's generator changes.
func randomDiffCases(metaSeed uint64, count int) []diffCase {
	src := newCaseSampler(metaSeed)
	cases := make([]diffCase, 0, count)
	for i := 0; i < count; i++ {
		var a core.Algorithm
		switch src.Intn(10) {
		case 0:
			a = Simple{}
		case 1:
			a = Simple{} // repeats case 0 so existing metaseeds sample unchanged
		case 2:
			a = Optimal{}
		case 3:
			a = Optimal{Literal: true}
		case 4:
			a = Adaptive{} // zero values: the compiled defaults must match Build's
			if src.Bernoulli(0.7) {
				a = Adaptive{Tau: 1 + src.Intn(4), FloorDiv: float64(2 + src.Intn(7))}
			}
		case 5:
			a = QualityAware{}
		case 6:
			var delta float64
			if src.Bernoulli(0.8) {
				delta = 0.9 * src.Float64()
			}
			a = ApproxN{Delta: delta}
		case 7:
			q := Quorum{} // zero values: the compiled defaults must match Build's
			if src.Bernoulli(0.7) {
				q = Quorum{
					Multiplier: 1.1 + 2*src.Float64(),
					Carry:      1 + src.Intn(4),
					Docility:   src.Float64(),
				}
			}
			if src.Bernoulli(0.4) {
				q.Assessor = nest.FlipAssessor{P: 0.3 * src.Float64()}
			}
			a = q
		case 8:
			no := Noisy{} // zero values: the compiled defaults must match Build's
			if src.Bernoulli(0.7) {
				no.Counter = nest.RelativeNoiseCounter{Sigma: 0.5 * src.Float64()}
			}
			switch src.Intn(3) {
			case 1:
				no.Assessor = nest.GaussianAssessor{Sigma: 0.3 * src.Float64()}
			case 2:
				no.Assessor = nest.FlipAssessor{P: 0.3 * src.Float64()}
			}
			if src.Bernoulli(0.3) {
				no.Threshold = 0.2 + 0.6*src.Float64()
			}
			a = no
		case 9:
			sp := Spreader{}
			switch src.Intn(3) {
			case 1:
				sp.Seeds = 1 + src.Intn(16)
			case 2:
				sp.SearchAll = true
			}
			a = sp
		}
		n := 8 + src.Intn(120)
		k := 1 + src.Intn(5)
		quals := make([]float64, k)
		nonBinary := src.Bernoulli(0.5)
		sample := func() float64 {
			if nonBinary {
				return 0.05 + 0.95*src.Float64()
			}
			return 1
		}
		for j := range quals {
			if src.Bernoulli(0.6) {
				quals[j] = sample()
			}
		}
		if good := src.Intn(k); quals[good] == 0 {
			quals[good] = sample() // environments need at least one good nest
		}
		if _, isSpreader := a.(Spreader); isSpreader {
			// The spreading process compiles only against a single good nest.
			lone := src.Intn(k)
			for j := range quals {
				quals[j] = 0
			}
			quals[lone] = sample()
		}
		// A third of the cases run a stock matcher ablation; quorum only
		// pairs with ablation matchers at carry 1 (they implement no
		// MatchCarry, mirroring the compile gate).
		matcher := ""
		switch src.Intn(6) {
		case 0:
			matcher = "simultaneous"
		case 1:
			matcher = "rendezvous"
		}
		if q, isQuorum := a.(Quorum); isQuorum && matcher != "" {
			q.Carry = 1
			a = q
		}
		// A third of the cases draw a random fault plan: each lane's fraction
		// is drawn independently (scaled so the three sum below 1), windows
		// and the stream salt vary, and zero-fraction draws disable lanes so
		// single-lane and disabled plans appear too.
		var spec faults.Spec
		if src.Bernoulli(0.33) {
			spec = faults.Spec{
				CrashFraction:     0.3 * src.Float64() * float64(src.Intn(2)),
				CrashWindow:       5 + src.Intn(60),
				ByzantineFraction: 0.15 * src.Float64() * float64(src.Intn(2)),
				SleepFraction:     0.3 * src.Float64() * float64(src.Intn(2)),
				SleepWindow:       5 + src.Intn(60),
				Salt:              src.Uint64(),
			}
		}
		// A quarter of the cases additionally run an adaptive schedule drawn
		// from the stock set plus the stress adversary, with randomized
		// parameters and (half the time) a non-default adversary-stream salt.
		var sched func() faults.Schedule
		if src.Bernoulli(0.25) {
			switch src.Intn(4) {
			case 0:
				per, budget := 1+src.Intn(3), 4+src.Intn(24)
				sched = func() faults.Schedule { return &faults.TargetedCrash{PerRound: per, Budget: budget} }
			case 1:
				sched = func() faults.Schedule { return &faults.AdaptiveLurer{} }
				if spec.ByzantineFraction == 0 {
					spec.ByzantineFraction = 0.05 + 0.1*src.Float64()
				}
			case 2:
				p, mean := 0.01+0.05*src.Float64(), 1+11*src.Float64()
				sched = func() faults.Schedule { return faults.Churn{CrashProb: p, MeanDowntime: mean} }
			case 3:
				sched = func() faults.Schedule { return stressSchedule{} }
			}
			if src.Bernoulli(0.5) {
				spec.ScheduleSalt = 1 + src.Uint64()%1000
			}
		}
		cases = append(cases, diffCase{
			name:      fmt.Sprintf("case%02d/%s%s/n%d/k%d", i, a.Name(), matcher, n, k),
			algo:      a,
			n:         n,
			env:       sim.MustEnvironment(quals),
			seeds:     []uint64{src.Uint64(), src.Uint64()},
			maxRounds: 40 + src.Intn(120),
			matcher:   matcher,
			faults:    spec,
			sched:     sched,
		})
	}
	return cases
}

// pinnedDiffCases is the fixed grid the harness always runs: the PR-1/PR-2
// golden cells (Algorithm 3 and both Algorithm 2 variants across n × k) plus
// hand-picked extension cells covering the default and stressed
// parameterizations on binary and non-binary environments.
func pinnedDiffCases() []diffCase {
	envBinary := sim.MustEnvironment([]float64{1, 0, 1, 0})
	envSingle := sim.MustEnvironment([]float64{1, 0})
	envSparse := sim.MustEnvironment([]float64{0, 1, 1, 0, 0})
	envGraded := sim.MustEnvironment([]float64{0.3, 0.9, 0.2})
	seeds := []uint64{1, 7, 42, 2015}

	var cases []diffCase
	add := func(a core.Algorithm, n int, env sim.Environment, maxRounds int) {
		cases = append(cases, diffCase{
			name:      fmt.Sprintf("%s/n%d/k%d", a.Name(), n, env.K()),
			algo:      a,
			n:         n,
			env:       env,
			seeds:     seeds,
			maxRounds: maxRounds,
		})
	}

	// Algorithm 3: the original lockstep golden cell.
	add(Simple{}, 128, envBinary, 400)
	add(Simple{}, 64, envSparse, 200)
	// Algorithm 2: the original general-path grid. The literal variant's
	// cells include deadlocking executions, which must reproduce too.
	for _, variant := range []Optimal{{}, {Literal: true}} {
		for _, n := range []int{32, 96} {
			for _, env := range []sim.Environment{envSingle, envBinary, envSparse} {
				add(variant, n, env, 160)
			}
		}
	}
	// §6 extensions: defaults and stressed parameters, binary and graded
	// qualities, δ = 0 degenerating to Algorithm 3 and δ near the cap.
	add(Adaptive{}, 96, envBinary, 200)
	add(Adaptive{Tau: 1, FloorDiv: 8}, 64, envSparse, 200)
	add(QualityAware{}, 96, envGraded, 200)
	add(QualityAware{}, 64, envBinary, 200)
	add(ApproxN{}, 64, envBinary, 200)
	add(ApproxN{Delta: 0.3}, 96, envBinary, 200)
	add(ApproxN{Delta: 0.75}, 64, envSparse, 200)
	// Quorum/transport: the default parameterization, a hair-trigger quorum
	// with tandem-only carry and full docility, a high quorum with a large
	// carry, low docility (transport standoffs must reproduce too), and a
	// noisy assessor (the E18 speed-accuracy cell). Transport rounds route the
	// batch matcher through MatchCarry, so these cells pin the carry-aware
	// pairing and the docility draw on capture.
	add(Quorum{}, 96, envBinary, 200)
	add(Quorum{Multiplier: 1.1, Carry: 1, Docility: 1}, 64, envBinary, 200)
	add(Quorum{Multiplier: 3, Carry: 6, Docility: 0.05}, 64, envSparse, 240)
	add(Quorum{Assessor: nest.FlipAssessor{P: 0.15}}, 96, envBinary, 200)
	add(Quorum{Carry: 2}, 48, envSingle, 200)
	// Noisy perception: exact (degenerates to Algorithm 3 with identical
	// draws), each estimator/assessor family from the nest package, and a
	// shifted classification threshold on graded qualities.
	add(Noisy{}, 96, envBinary, 200)
	add(Noisy{Counter: nest.RelativeNoiseCounter{Sigma: 0.3}}, 96, envBinary, 300)
	add(Noisy{Counter: nest.EncounterRateCounter{Probes: 16, Volume: 4}}, 64, envBinary, 300)
	add(Noisy{Assessor: nest.FlipAssessor{P: 0.2}}, 64, envSparse, 300)
	add(Noisy{Counter: nest.RelativeNoiseCounter{Sigma: 0.2}, Assessor: nest.GaussianAssessor{Sigma: 0.15}, Threshold: 0.4}, 64, envGraded, 300)
	// Matcher ablations (§2's "other natural models", the E16 axis): the
	// compiled simultaneous and rendezvous pairings must reproduce the
	// scalar engine running the same model draw for draw, across the
	// lockstep (simple), general (optimal) and drawn-recruit extension
	// paths, plus an explicitly-selected algorithm1 (exercising the
	// cfg.NewMatcher stock-resolution instead of the default). Quorum with
	// tandem-only carry pins the carry-1 transport program on a carry-less
	// ablation matcher.
	addM := func(a core.Algorithm, matcher string, n int, env sim.Environment, maxRounds int) {
		cases = append(cases, diffCase{
			name:      fmt.Sprintf("%s+%s/n%d/k%d", a.Name(), matcher, n, env.K()),
			algo:      a,
			n:         n,
			env:       env,
			seeds:     seeds,
			maxRounds: maxRounds,
			matcher:   matcher,
		})
	}
	// The §3 lower-bound spreading process: the first split-init program
	// (seed searchers vs waiters), the all-searchers best case, and a seed
	// count exceeding the colony (clamps to all searchers). The process
	// requires exactly one good nest, so only envSingle-like environments
	// appear; envLone adds bad-nest padding around a graded target.
	envLone := sim.MustEnvironment([]float64{0, 0.6, 0})
	add(Spreader{}, 64, envSingle, 200)
	add(Spreader{Seeds: 8}, 96, envLone, 200)
	add(Spreader{SearchAll: true}, 64, envSingle, 120)
	add(Spreader{Seeds: 500}, 48, envSingle, 120)
	addM(Simple{}, "simultaneous", 96, envBinary, 300)
	addM(Simple{}, "rendezvous", 96, envBinary, 200)
	addM(Simple{}, "algorithm1", 64, envSparse, 200)
	addM(Optimal{}, "simultaneous", 64, envBinary, 200)
	addM(Optimal{}, "rendezvous", 64, envBinary, 200)
	addM(Optimal{Literal: true}, "simultaneous", 32, envSingle, 160)
	addM(QualityAware{}, "simultaneous", 64, envGraded, 240)
	addM(Adaptive{}, "rendezvous", 64, envBinary, 200)
	addM(Quorum{Carry: 1}, "simultaneous", 64, envBinary, 240)
	addM(Quorum{Carry: 1, Docility: 0.6}, "rendezvous", 64, envBinary, 240)
	// Adversary cells: each fault lane alone and mixed, across the compiled
	// inventory — the scalar crash/Byzantine/sleep wrappers against the batch
	// engine's synthetic fault states. The window values keep every lane's
	// events (crash fires, wake-ups) inside the traced budget, and the salts
	// vary so the fault stream's position relative to the other streams is
	// exercised too.
	crash := faults.Spec{CrashFraction: 0.15, CrashWindow: 30, Salt: 11}
	byz := faults.Spec{ByzantineFraction: 0.1, Salt: 12}
	sleep := faults.Spec{SleepFraction: 0.25, SleepWindow: 40, Salt: 13}
	mixed := faults.Spec{
		CrashFraction: 0.1, CrashWindow: 20,
		ByzantineFraction: 0.05,
		SleepFraction:     0.1, SleepWindow: 30,
		Salt: 14,
	}
	addF := func(a core.Algorithm, tag string, spec faults.Spec, n int, env sim.Environment, maxRounds int) {
		cases = append(cases, diffCase{
			name:      fmt.Sprintf("%s+%s/n%d/k%d", a.Name(), tag, n, env.K()),
			algo:      a,
			n:         n,
			env:       env,
			seeds:     seeds,
			maxRounds: maxRounds,
			faults:    spec,
		})
	}
	for _, a := range []core.Algorithm{Simple{}, Optimal{}, Optimal{Literal: true},
		Adaptive{}, QualityAware{}, ApproxN{Delta: 0.3}, Quorum{}, Noisy{Counter: nest.RelativeNoiseCounter{Sigma: 0.2}}} {
		addF(a, "crash", crash, 64, envBinary, 200)
		addF(a, "byz", byz, 64, envBinary, 200)
		addF(a, "sleep", sleep, 64, envBinary, 200)
		addF(a, "mixed", mixed, 96, envSparse, 240)
	}
	// Graded qualities under faults (the quality-weighted draw must survive
	// the fault lanes' scatter reordering), the spreading process under every
	// lane, and a faulted matcher ablation (fault lanes compose with the
	// compiled stock models).
	addF(QualityAware{}, "mixed", mixed, 64, envGraded, 240)
	addF(Spreader{}, "crash", crash, 64, envSingle, 200)
	addF(Spreader{Seeds: 8}, "byz", byz, 64, envSingle, 200)
	addF(Spreader{SearchAll: true}, "sleep", sleep, 64, envSingle, 200)
	addF(Spreader{Seeds: 4}, "mixed", mixed, 96, envLone, 240)
	cases = append(cases, diffCase{
		name: "simple+simultaneous+crash/n64", algo: Simple{}, n: 64, env: envBinary,
		seeds: seeds, maxRounds: 200, matcher: "simultaneous",
		faults: crash,
	})
	// Sharded cells: the same equivalence contract through the parallel phase
	// kernels. One cell per phase family the shard pool fans out — the
	// lockstep emit/fold (simple), the drawn-recruit extensions (adaptive,
	// quality on graded qualities), the general path's
	// histogram/scatter/emit/assemble/observe pipeline (optimal), transport
	// plus docility capture (quorum), the fault lanes' scatter reordering
	// (mixed adversary), and the split-init spreader. Shard counts that do
	// not divide n pin the boundary arithmetic.
	addSh := func(a core.Algorithm, sh, n int, env sim.Environment, maxRounds int, spec faults.Spec) {
		cases = append(cases, diffCase{
			name:      fmt.Sprintf("%s+shards%d/n%d/k%d", a.Name(), sh, n, env.K()),
			algo:      a,
			n:         n,
			env:       env,
			seeds:     seeds,
			maxRounds: maxRounds,
			shards:    sh,
			faults:    spec,
		})
	}
	addSh(Simple{}, 4, 128, envBinary, 300, faults.Spec{})
	addSh(Adaptive{}, 3, 97, envBinary, 200, faults.Spec{})
	addSh(QualityAware{}, 5, 96, envGraded, 200, faults.Spec{})
	addSh(Optimal{}, 4, 96, envBinary, 160, faults.Spec{})
	addSh(Quorum{Multiplier: 1.1, Carry: 2, Docility: 0.6}, 3, 64, envBinary, 240, faults.Spec{})
	addSh(Simple{}, 4, 96, envSparse, 240, mixed)
	addSh(Optimal{}, 3, 64, envBinary, 200, byz)
	addSh(Spreader{Seeds: 8}, 4, 96, envLone, 200, faults.Spec{})
	// Adaptive adversary cells: the scalar schedule controller (engine round
	// hook) against the batch lane's mutation pass, over every stock schedule
	// and the kitchen-sink stress schedule, composed with static fault lanes,
	// graded qualities, a matcher ablation, sharding, and a non-default
	// ScheduleSalt. Churn and stress cells exercise crash-recovery (restarts
	// re-enter the algorithm at logical round 1 on both engines); lurer cells
	// need a Byzantine population to relocate.
	addA := func(a core.Algorithm, tag string, spec faults.Spec, sched func() faults.Schedule, sh, n int, env sim.Environment, maxRounds int) {
		cases = append(cases, diffCase{
			name:      fmt.Sprintf("%s+sched-%s/n%d/k%d", a.Name(), tag, n, env.K()),
			algo:      a,
			n:         n,
			env:       env,
			seeds:     seeds,
			maxRounds: maxRounds,
			shards:    sh,
			faults:    spec,
			sched:     sched,
		})
	}
	targeted := func() faults.Schedule { return &faults.TargetedCrash{PerRound: 1, Budget: 10} }
	lurer := func() faults.Schedule { return &faults.AdaptiveLurer{} }
	churn := func() faults.Schedule { return faults.Churn{CrashProb: 0.02, MeanDowntime: 6} }
	stress := func() faults.Schedule { return stressSchedule{} }
	byzOnly := faults.Spec{ByzantineFraction: 0.1, Salt: 15}
	for _, a := range []core.Algorithm{Simple{}, Optimal{}, Adaptive{},
		QualityAware{}, ApproxN{Delta: 0.3}, Quorum{}, Noisy{Counter: nest.RelativeNoiseCounter{Sigma: 0.2}}} {
		addA(a, "targeted", faults.Spec{Salt: 15}, targeted, 0, 64, envBinary, 200)
		addA(a, "churn", faults.Spec{Salt: 15}, churn, 0, 64, envBinary, 200)
		addA(a, "lurer", byzOnly, lurer, 0, 64, envBinary, 200)
		addA(a, "stress", mixed, stress, 0, 96, envSparse, 240)
	}
	// Graded qualities, the spreading process, a salted adversary stream, a
	// matcher-ablation composition, and sharded adaptive lanes.
	addA(QualityAware{}, "stress", mixed, stress, 0, 64, envGraded, 240)
	addA(Spreader{}, "churn", faults.Spec{Salt: 15}, churn, 0, 64, envSingle, 200)
	addA(Spreader{Seeds: 8}, "lurer", byzOnly, lurer, 0, 96, envLone, 200)
	addA(Simple{}, "salted", faults.Spec{Salt: 15, ScheduleSalt: 99}, stress, 0, 64, envBinary, 200)
	addA(Simple{}, "sharded-stress", mixed, stress, 4, 96, envBinary, 240)
	addA(Optimal{}, "sharded-churn", faults.Spec{Salt: 15}, churn, 3, 64, envBinary, 200)
	cases = append(cases, diffCase{
		name: "simple+simultaneous+sched-targeted/n64", algo: Simple{}, n: 64, env: envBinary,
		seeds: seeds, maxRounds: 200, matcher: "simultaneous",
		faults: faults.Spec{Salt: 15}, sched: targeted,
	})
	// The satellite edge cells: a window of exactly 1 (every static event
	// lands on its lane's single eligible round) and fractions summing to
	// exactly 1 (no non-faulty ant in the colony), with and without a
	// schedule on top.
	edgeWindow := faults.Spec{CrashFraction: 0.2, CrashWindow: 1, SleepFraction: 0.2, SleepWindow: 1, Salt: 16}
	edgeSum := faults.Spec{CrashFraction: 0.5, CrashWindow: 12, ByzantineFraction: 0.25, SleepFraction: 0.25, SleepWindow: 12, Salt: 17}
	addF(Simple{}, "window1", edgeWindow, 64, envBinary, 200)
	addF(Optimal{}, "window1", edgeWindow, 64, envBinary, 160)
	addF(Simple{}, "sum1", edgeSum, 64, envBinary, 200)
	addF(Quorum{}, "sum1", edgeSum, 64, envBinary, 240)
	addA(Simple{}, "window1-churn", edgeWindow, churn, 0, 64, envBinary, 200)
	addA(Simple{}, "sum1-stress", edgeSum, stress, 0, 64, envBinary, 200)
	return cases
}

// TestBatchDifferentialPinned runs the fixed golden grid through every layer
// of the harness. It subsumes the per-algorithm equivalence tables of PRs 1-2
// (simple and optimal) and extends them to the §6 extensions.
func TestBatchDifferentialPinned(t *testing.T) {
	t.Parallel()
	for _, c := range pinnedDiffCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			assertDiffCase(t, c)
		})
	}
}

// TestBatchDifferentialRandomized is the property-based sweep: randomized
// (algorithm, seeds, n, k, quality vector, δ, schedule) configurations, all
// asserted bit-identical at every layer.
func TestBatchDifferentialRandomized(t *testing.T) {
	t.Parallel()
	for _, c := range randomDiffCases(2015, 24) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			assertDiffCase(t, c)
		})
	}
}

// generalPathVariant rewrites a lockstep program so the batch engine must
// take the general per-ant path without changing behavior: the initial
// search's static ObserveDiscovery becomes an ObserveDiscoverBranch whose two
// successors coincide. For a search outcome the two opcodes write identical
// registers, so every round still resolves identically — but the branching
// observe declassifies the program from Lockstep, forcing per-ant dispatch.
// Programs whose discovery observe has no branching twin (the noisy-perception
// fold) instead gain an UNREACHABLE branching state: Lockstep() classifies by
// the state table alone, so the dead state forces the general path while no
// execution ever enters it.
func generalPathVariant(t *testing.T, prog sim.Program) sim.Program {
	t.Helper()
	states := append([]sim.ProgramState(nil), prog.States...)
	rewritten := false
	for i, st := range states {
		if st.Emit == sim.EmitSearch && st.Observe == sim.ObserveDiscovery {
			states[i].Observe = sim.ObserveDiscoverBranch
			states[i].NextB = st.Next
			rewritten = true
		}
	}
	if !rewritten {
		states = append(states, sim.ProgramState{
			Emit: sim.EmitSearch, Observe: sim.ObserveDiscoverBranch, Next: prog.Init, NextB: prog.Init,
		})
	}
	gp := prog
	gp.States = states
	if err := gp.Validate(); err != nil {
		t.Fatalf("%s: general-path variant invalid: %v", prog.Algorithm, err)
	}
	if gp.Lockstep() {
		t.Fatalf("%s: general-path variant still classifies as lockstep", prog.Algorithm)
	}
	return gp
}

// TestExtensionGeneralPathEquivalence pins the general-path implementations
// of the §6 opcodes (the drawn-recruit emits and the quality-tracking
// observes), which the compiled extension programs never reach on their own
// because they all classify as lockstep: the same programs, forced onto the
// per-ant path via generalPathVariant, must still reproduce the scalar trace
// bit for bit.
func TestExtensionGeneralPathEquivalence(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0, 1, 0})
	graded := sim.MustEnvironment([]float64{0.3, 0.9, 0.2})
	seeds := []uint64{1, 7, 42, 2015}
	cases := []diffCase{
		{name: "general/simple", algo: Simple{}, n: 64, env: env, seeds: seeds, maxRounds: 200},
		{name: "general/adaptive", algo: Adaptive{}, n: 64, env: env, seeds: seeds, maxRounds: 200},
		{name: "general/quality", algo: QualityAware{}, n: 64, env: graded, seeds: seeds, maxRounds: 200},
		{name: "general/approxn", algo: ApproxN{Delta: 0.4}, n: 64, env: env, seeds: seeds, maxRounds: 200},
		{name: "general/noisy", algo: Noisy{Counter: nest.RelativeNoiseCounter{Sigma: 0.25}, Assessor: nest.FlipAssessor{P: 0.1}}, n: 64, env: env, seeds: seeds, maxRounds: 300},
		{name: "general/noisy-exact", algo: Noisy{}, n: 64, env: graded, seeds: seeds, maxRounds: 200},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			gp := generalPathVariant(t, compileCase(t, c))
			compareTraces(t, c, scalarTrace(t, c), batchTrace(t, c, gp))
		})
	}
}

// TestCompiledInventoryPrograms pins the path classification of every
// compiled algorithm: the Algorithm 3 family and the recruit-draw/perception
// extensions stay on the lockstep fast path, Algorithm 2, the
// quorum-transport strategy and the Spreader process require the general path
// (branching observes; Spreader additionally splits its initial state), only
// the extensions that need parameter columns request them, only the quorum
// programs carry transport capacity, and only quorum and optimal decide.
// Spreader is the one program with no per-ant randomness at all — neither
// form of the process makes a per-ant draw.
func TestCompiledInventoryPrograms(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0})
	for _, a := range compiledInventory() {
		prog, ok := a.(core.BatchCompilable).CompileBatch(64, env)
		if !ok {
			t.Fatalf("%s: did not compile", a.Name())
		}
		_, isOptimal := a.(Optimal)
		_, isQuorum := a.(Quorum)
		spr, isSpreader := a.(Spreader)
		if got := prog.Lockstep(); got == (isOptimal || isQuorum || isSpreader) {
			t.Errorf("%s: Lockstep() = %v, want %v", a.Name(), got, !(isOptimal || isQuorum || isSpreader))
		}
		if wantSplit := isSpreader && !spr.SearchAll; (prog.InitSplit > 0) != wantSplit {
			t.Errorf("%s: InitSplit = %d, want split %v", a.Name(), prog.InitSplit, wantSplit)
		}
		_, isAdaptive := a.(Adaptive)
		if prog.NeedsIntParam() != isAdaptive {
			t.Errorf("%s: NeedsIntParam() = %v", a.Name(), prog.NeedsIntParam())
		}
		_, isApproxN := a.(ApproxN)
		if prog.NeedsFloatParam() != isApproxN {
			t.Errorf("%s: NeedsFloatParam() = %v", a.Name(), prog.NeedsFloatParam())
		}
		if prog.UsesCarry() != isQuorum {
			t.Errorf("%s: UsesCarry() = %v, want %v", a.Name(), prog.UsesCarry(), isQuorum)
		}
		if wantDecides := isQuorum || isOptimal; prog.Decides() != wantDecides {
			t.Errorf("%s: Decides() = %v, want %v", a.Name(), prog.Decides(), wantDecides)
		}
		if prog.NeedsAntRNG() == (isOptimal || isSpreader) {
			t.Errorf("%s: NeedsAntRNG() = %v; only optimal and spreader never draw per-ant", a.Name(), prog.NeedsAntRNG())
		}
	}
}

// TestRunBatchFallsBackForScalarOnlyConfigs pins the eligibility rules and
// the human-readable fallback reasons: configurations carrying scalar-only
// features and algorithms without a compiled form must decline the batch path
// and say why.
func TestRunBatchFallsBackForScalarOnlyConfigs(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0})
	base := core.RunConfig{N: 16, Env: env}
	ineligible := []struct {
		name       string
		algo       core.Algorithm
		cfg        core.RunConfig
		wantReason string
	}{
		// A plain function wrapper is an arbitrary agent transformation: it
		// must decline with the exact named constant (fault specs are the one
		// wrapper family that compiles — asserted below).
		{"wrap", Simple{}, func() core.RunConfig {
			c := base
			c.Wrap = core.WrapFunc(func(a []sim.Agent) ([]sim.Agent, error) { return a, nil })
			return c
		}(), core.ReasonWrapperScalarOnly},
		// An invalid fault spec declines with the validation error rather
		// than compiling garbage lanes or falling through to the scalar path
		// silently.
		{"wrap invalid spec", Simple{}, func() core.RunConfig {
			c := base
			c.Wrap = faults.Spec{CrashFraction: 0.9, ByzantineFraction: 0.9}
			return c
		}(), "fault spec is invalid"},
		// Stock matcher configs compile since the matcher-ablation lowering;
		// only a genuinely custom implementation forces the scalar path, and
		// the reason names the type plus the stock models that do batch. The
		// assertion loop checks every comma-separated fragment.
		{"matcher", Quorum{}, func() core.RunConfig {
			c := base
			c.NewMatcher = func() sim.Matcher { return scalarOnlyMatcher{} }
			return c
		}(), "custom matcher,scalar-only-test,simultaneous,rendezvous"},
		// A transporting algorithm cannot batch a carry-less ablation matcher:
		// the scalar engine rejects the first transport round for it, so the
		// config stays scalar and the reason names the missing CarryMatcher.
		{"matcher transport", Quorum{}, func() core.RunConfig {
			c := base
			c.NewMatcher = func() sim.Matcher { return &sim.SimultaneousMatcher{} }
			return c
		}(), "quorum,carry 3,CarryMatcher"},
		{"not compilable", scalarOnlyAlgorithm{}, base, "does not implement core.BatchCompilable"},
		{"declined", ApproxN{Delta: 1.5}, base, "declined to compile"},
		{"declined quorum", Quorum{Multiplier: 0.5}, base, "declined to compile"},
		{"declined quorum docility", Quorum{Docility: 1.5}, base, "declined to compile"},
		// Spreader compiles now — except against environments violating its
		// single-good-nest requirement.
		{"declined spreader", Spreader{}, func() core.RunConfig {
			c := base
			c.Env = sim.MustEnvironment([]float64{1, 1})
			return c
		}(), "declined to compile"},
	}
	for _, tc := range ineligible {
		if _, ok, reason := core.CompileForBatch(tc.algo, tc.cfg); ok {
			t.Errorf("%s: config should not be batch-eligible", tc.name)
		} else {
			for _, want := range strings.Split(tc.wantReason, ",") {
				if !strings.Contains(reason, want) {
					t.Errorf("%s: reason %q does not mention %q", tc.name, reason, want)
				}
			}
		}
	}
	// The full compiled inventory — quorum, noisy and the spreader included —
	// is batch-eligible on a plain configuration.
	for _, a := range compiledInventory() {
		if _, ok, reason := core.CompileForBatch(a, base); !ok || reason != "" {
			t.Errorf("%s: ok=%v reason=%q, want eligible with empty reason", a.Name(), ok, reason)
		}
	}
	// Fault specs are the one wrapper family that compiles: an enabled spec
	// lands in the program's parameters, and a disabled (zero) spec wraps as
	// the identity and compiles fault-free.
	for _, a := range compiledInventory() {
		cfg := base
		cfg.Wrap = faults.Spec{CrashFraction: 0.1, ByzantineFraction: 0.05, Salt: 7}
		prog, ok, reason := core.CompileForBatch(a, cfg)
		if !ok || reason != "" {
			t.Errorf("%s+faults: ok=%v reason=%q, want eligible with empty reason", a.Name(), ok, reason)
			continue
		}
		if !prog.Params.Faults.Enabled() || prog.Params.Faults.CrashFraction != 0.1 {
			t.Errorf("%s+faults: compiled program carries faults %+v, want the cfg.Wrap spec", a.Name(), prog.Params.Faults)
		}
	}
	disabled := base
	disabled.Wrap = faults.Spec{}
	if prog, ok, reason := core.CompileForBatch(Simple{}, disabled); !ok || reason != "" {
		t.Errorf("disabled spec: ok=%v reason=%q, want eligible", ok, reason)
	} else if prog.Params.Faults.Enabled() {
		t.Errorf("disabled spec: compiled program carries enabled faults %+v", prog.Params.Faults)
	}
	// Stock matcher ablation configs are batch-eligible too (for carry-less
	// algorithms): the ablation sweep no longer pays scalar speed.
	for _, stock := range []func() sim.Matcher{
		func() sim.Matcher { return &sim.AlgorithmOneMatcher{} },
		func() sim.Matcher { return &sim.SimultaneousMatcher{} },
		func() sim.Matcher { return &sim.RendezvousMatcher{} },
	} {
		cfg := base
		cfg.NewMatcher = stock
		name := stock().Name()
		if _, ok, reason := core.CompileForBatch(Simple{}, cfg); !ok || reason != "" {
			t.Errorf("simple with stock matcher %s: ok=%v reason=%q, want eligible", name, ok, reason)
		}
		if _, ok, reason := core.CompileForBatch(Optimal{}, cfg); !ok || reason != "" {
			t.Errorf("optimal with stock matcher %s: ok=%v reason=%q, want eligible", name, ok, reason)
		}
	}
	// Non-compilable algorithms fall back without error at the runner level.
	if _, ok, err := core.RunBatch(scalarOnlyAlgorithm{}, base, []uint64{1}); ok || err != nil {
		t.Errorf("RunBatch on a non-compilable algorithm: ok=%v err=%v, want fallback", ok, err)
	}
}

// scalarOnlyAlgorithm is an Algorithm with no compiled form: since the
// Spreader gap closed, the entire shipped inventory compiles, so the
// fallback-for-uncompilable path needs a synthetic representative.
type scalarOnlyAlgorithm struct{}

func (scalarOnlyAlgorithm) Name() string { return "scalar-only-algo" }

func (scalarOnlyAlgorithm) Build(n int, env sim.Environment, src *rng.Source) ([]sim.Agent, error) {
	return Simple{}.Build(n, env, src)
}

// scalarOnlyMatcher is a non-stock Matcher: configs supplying it must fall
// back to the scalar engine with a reason naming the type.
type scalarOnlyMatcher struct{}

func (scalarOnlyMatcher) Name() string { return "scalar-only-test" }

func (scalarOnlyMatcher) Match(n int, active []bool, src *rng.Source, capturedBy []int32, succeeded []bool) {
	for t := 0; t < n; t++ {
		capturedBy[t] = -1
		succeeded[t] = false
	}
}

// TestBatchCeilingBoundaryEquivalence pins the first colony size past the old
// n ≤ 2^16 fixed-point fast-path ceiling: before PR 9 the batch engine sized
// its per-count threshold tables at 65536 entries and silently depended on
// every count fitting that range, so n = 2^16 + 1 is exactly the cell where
// the reciprocal kernels (rng.Recip) take over from the tables. One seed and
// a short budget keep the scalar oracle affordable; the three algorithms
// cover the population draw (simple), the adaptive c/(c+decay) draw at
// full-n counts (adaptive) and the quality-scaled product kernel (quality),
// all three through the per-call threshold memo. Sharded variants run the
// same colonies through the parallel phase kernels, where each shard's draw
// call owns its own memo and the capture fold splits the capture list.
func TestBatchCeilingBoundaryEquivalence(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("65537-ant scalar oracle is slow under -short")
	}
	env := sim.MustEnvironment([]float64{1, 0, 0.6})
	const n = 1<<16 + 1
	seeds := []uint64{2015}
	cases := []diffCase{
		{name: "ceiling/simple", algo: Simple{}, n: n, env: env, seeds: seeds, maxRounds: 12},
		{name: "ceiling/adaptive", algo: Adaptive{}, n: n, env: env, seeds: seeds, maxRounds: 12},
		{name: "ceiling/quality", algo: QualityAware{}, n: n, env: env, seeds: seeds, maxRounds: 12},
		{name: "ceiling/simple+shards", algo: Simple{}, n: n, env: env, seeds: seeds, maxRounds: 12, shards: 4},
		{name: "ceiling/quality+shards", algo: QualityAware{}, n: n, env: env, seeds: seeds, maxRounds: 12, shards: 4},
		{name: "ceiling/adaptive+shards", algo: Adaptive{}, n: n, env: env, seeds: seeds, maxRounds: 12, shards: 4},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			prog := compileCase(t, c)
			compareTraces(t, c, scalarTrace(t, c), batchTrace(t, c, prog))
		})
	}
}

// TestBatchNestLimitEquivalence pins the widest environment the batch lanes
// hold: k = sim.MaxBatchNests, so nest ids fill the lanes' one-byte columns
// up to 255. Three programs run round for round against the scalar engine and
// through both runners: the lockstep path (simple), the general path
// (optimal), and the fault lanes with crash victims' last known nests
// (simple under crashes and Byzantine lurers). A fourth case adds the stress
// schedule, whose relocations re-aim lurers at nest 255, the highest bad
// nest, through the narrowing relocate op.
func TestBatchNestLimitEquivalence(t *testing.T) {
	t.Parallel()
	qs := make([]float64, sim.MaxBatchNests)
	qs[0], qs[127] = 1, 1 // nests 1 and 128 are good; 255 is bad
	env := sim.MustEnvironment(qs)
	mixed := faults.Spec{CrashFraction: 0.1, CrashWindow: 20, ByzantineFraction: 0.05, Salt: 21}
	seeds := []uint64{3, 11}
	cases := []diffCase{
		{name: "k255/simple", algo: Simple{}, n: 1024, env: env, seeds: seeds, maxRounds: 40},
		{name: "k255/optimal", algo: Optimal{}, n: 1024, env: env, seeds: seeds, maxRounds: 40},
		{name: "k255/simple+faults", algo: Simple{}, n: 1024, env: env, seeds: seeds, maxRounds: 40, faults: mixed},
		{name: "k255/simple+sched", algo: Simple{}, n: 1024, env: env, seeds: seeds, maxRounds: 40, faults: mixed,
			sched: func() faults.Schedule { return stressSchedule{} }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			want := scalarTrace(t, c)
			compareTraces(t, c, want, batchTrace(t, c, compileCase(t, c)))
			top := 0
			for _, rounds := range want {
				for _, rec := range rounds {
					top = max(top, rec.commit[sim.MaxBatchNests])
				}
			}
			if top == 0 {
				t.Fatalf("%s: no ant ever committed to nest %d; the check is vacuous", c.name, sim.MaxBatchNests)
			}
			assertRunnerEquivalence(t, c)
		})
	}
}

// TestBatchCountSaturationEquivalence pins perception readings beyond the
// lanes' int32 count register. Relative noise at σ = 1e7 reads a nest of a
// few hundred ants as billions about a fifth of the time: the scalar NoisyAnt
// keeps such a reading as an int, and the lane must store it saturated, not
// wrapped, to draw the same recruitments on every seed. An encounter counter
// with an infinite cavity volume meets no one and computes every reading as
// 0·∞, which both engines must read as the same count. Each case runs every
// layer of the harness on the lockstep path, and its trace again on the
// general path (generalPathVariant), whose noisy observes store the count
// separately.
func TestBatchCountSaturationEquivalence(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0, 1, 0})
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	var cases []diffCase
	for _, a := range []Noisy{
		{Counter: nest.RelativeNoiseCounter{Sigma: 1e7}},
		{Counter: nest.EncounterRateCounter{Probes: 16, Volume: math.Inf(1)}},
	} {
		cases = append(cases, diffCase{name: a.Name(), algo: a, n: 1024, env: env, seeds: seeds, maxRounds: 60})
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			assertDiffCase(t, c)
			gp := generalPathVariant(t, compileCase(t, c))
			compareTraces(t, c, scalarTrace(t, c), batchTrace(t, c, gp))
		})
	}
}

// TestBatchShardInvariance pins the sharding contract directly: the same
// compiled program over the same seeds must produce bit-identical round
// traces at every shard count, including counts that do not divide n and a
// count exceeding the colony (which clamps). The scalar engine never runs
// here — shard-count invariance is a property of the batch engine alone, and
// scalar equivalence of the shards=1 base is pinned by the differential grid.
func TestBatchShardInvariance(t *testing.T) {
	t.Parallel()
	envBinary := sim.MustEnvironment([]float64{1, 0, 1, 0})
	envGraded := sim.MustEnvironment([]float64{0.3, 0.9, 0.2})
	mixed := faults.Spec{
		CrashFraction: 0.1, CrashWindow: 20,
		ByzantineFraction: 0.05,
		SleepFraction:     0.1, SleepWindow: 30,
		Salt: 14,
	}
	cases := []diffCase{
		{name: "simple", algo: Simple{}, n: 96, env: envBinary, seeds: []uint64{1, 7}, maxRounds: 200},
		{name: "quality", algo: QualityAware{}, n: 97, env: envGraded, seeds: []uint64{1, 7}, maxRounds: 200},
		{name: "adaptive", algo: Adaptive{}, n: 97, env: envBinary, seeds: []uint64{1, 7}, maxRounds: 200},
		{name: "optimal", algo: Optimal{}, n: 96, env: envBinary, seeds: []uint64{1, 7}, maxRounds: 160},
		{name: "quorum", algo: Quorum{}, n: 96, env: envBinary, seeds: []uint64{1, 7}, maxRounds: 200},
		{name: "simple+faults", algo: Simple{}, n: 96, env: envBinary, seeds: []uint64{1, 7}, maxRounds: 200, faults: mixed},
		{name: "simple+sched", algo: Simple{}, n: 96, env: envBinary, seeds: []uint64{1, 7}, maxRounds: 200, faults: mixed,
			sched: func() faults.Schedule { return stressSchedule{} }},
		{name: "optimal+sched", algo: Optimal{}, n: 97, env: envBinary, seeds: []uint64{1, 7}, maxRounds: 160,
			sched: func() faults.Schedule { return faults.Churn{CrashProb: 0.02, MeanDowntime: 6} }},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			prog := compileCase(t, c)
			base := c
			base.shards = 1
			want := batchTrace(t, base, prog)
			for _, sh := range []int{2, 3, 7, 1024} {
				v := c
				v.shards = sh
				v.name = fmt.Sprintf("%s/shards%d", c.name, sh)
				compareTraces(t, v, want, batchTrace(t, v, prog))
			}
		})
	}
}

// TestBatchWorkerInvariance pins the worker-budget contract at the runner
// layer: core.RunBatch must return identical Results for any cfg.BatchWorkers
// and cfg.BatchShards combination — lanes and shards partition work, they
// never reorder draws. This is the end-to-end form of the satellite fix that
// lets a single-replicate run use more than one core.
func TestBatchWorkerInvariance(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0, 1, 0})
	seeds := []uint64{1, 7, 42}
	run := func(workers, shards int) []core.Result {
		t.Helper()
		cfg := core.RunConfig{N: 96, Env: env, MaxRounds: 400, StabilityWindow: 2,
			BatchWorkers: workers, BatchShards: shards}
		res, ok, err := core.RunBatch(Simple{}, cfg, seeds)
		if err != nil || !ok {
			t.Fatalf("RunBatch(workers=%d, shards=%d): ok=%v err=%v", workers, shards, ok, err)
		}
		return res
	}
	want := run(1, 1)
	for _, wc := range []struct{ workers, shards int }{
		{1, 4}, {2, 0}, {4, 0}, {8, 3}, {16, 16},
	} {
		if got := run(wc.workers, wc.shards); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d shards=%d diverged:\ngot  %+v\nwant %+v", wc.workers, wc.shards, got, want)
		}
	}
	// Adaptive-fault lanes under the same sweep: each lane steps its own
	// schedule instance on its own adversary stream sequentially, so worker
	// and shard fan-out must not perturb the mutations either.
	runSched := func(workers, shards int) []core.Result {
		t.Helper()
		cfg := core.RunConfig{N: 96, Env: env, MaxRounds: 400, StabilityWindow: 2,
			BatchWorkers: workers, BatchShards: shards}
		cfg.Wrap = faults.Spec{ByzantineFraction: 0.1, Salt: 15,
			NewSchedule: func() faults.Schedule { return stressSchedule{} }}
		res, ok, err := core.RunBatch(Simple{}, cfg, seeds)
		if err != nil || !ok {
			t.Fatalf("RunBatch+sched(workers=%d, shards=%d): ok=%v err=%v", workers, shards, ok, err)
		}
		return res
	}
	wantSched := runSched(1, 1)
	for _, wc := range []struct{ workers, shards int }{
		{1, 4}, {4, 0}, {8, 3},
	} {
		if got := runSched(wc.workers, wc.shards); !reflect.DeepEqual(got, wantSched) {
			t.Errorf("sched workers=%d shards=%d diverged:\ngot  %+v\nwant %+v", wc.workers, wc.shards, got, wantSched)
		}
	}
	// The default sharded path, which the cells above never reach: they
	// force their shard counts on colonies far below the engine's shard
	// grain of 2^15 ants (sim's batchShardGrain). One colony of twice the
	// grain with BatchShards unset runs on one lane of two shards at
	// workers=2 — colony-1m's topology — and must match workers=1. noisy
	// runs the lockstep capture fold beside its per-ant perception hooks;
	// quorum runs the carry matcher on the general path.
	for _, c := range []struct {
		name string
		alg  core.Algorithm
	}{
		{"simple", Simple{}},
		{"noisy", Noisy{Counter: nest.RelativeNoiseCounter{Sigma: 0.1}}},
		{"quorum", Quorum{}},
	} {
		runGrain := func(workers int) []core.Result {
			t.Helper()
			cfg := core.RunConfig{N: 1 << 16, Env: env, MaxRounds: 2000, StabilityWindow: 2, BatchWorkers: workers}
			res, ok, err := core.RunBatch(c.alg, cfg, []uint64{42})
			if err != nil || !ok {
				t.Fatalf("RunBatch(%s, n=2^16, workers=%d): ok=%v err=%v", c.name, workers, ok, err)
			}
			return res
		}
		want := runGrain(1)
		if !want[0].Solved {
			t.Errorf("%s n=2^16: unsolved after %d rounds; the cell should reach its decision", c.name, want[0].Rounds)
		}
		if got := runGrain(2); !reflect.DeepEqual(got, want) {
			t.Errorf("%s n=2^16 workers=2 diverged from workers=1:\ngot  %+v\nwant %+v", c.name, got, want)
		}
	}
}

// TestQuorumThresholdOverflowDecline is the regression guard for the one
// intentional large-n compile gate left after the ceiling removal: a quorum
// threshold M·n that cannot live in the engine's 32-bit threshold register
// must keep declining to compile, and the runner must keep surfacing the
// named fallback reason rather than silently truncating the threshold.
func TestQuorumThresholdOverflowDecline(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0})
	// 1.5 · 1.5e9 > MaxInt32: over the register; one ant fewer at multiplier
	// 1.1 stays comfortably under and must still compile.
	over := (1 << 31) // mult 1.5 → threshold 3.2e9
	if _, ok := (Quorum{}).CompileBatch(over, env); ok {
		t.Fatalf("Quorum{}.CompileBatch(n=%d) compiled; threshold overflows int32", over)
	}
	if _, ok := (Quorum{Multiplier: 1.5}).CompileBatch(1<<20, env); !ok {
		t.Fatalf("Quorum{}.CompileBatch(n=2^20) declined; threshold fits int32")
	}
	cfg := core.RunConfig{N: over, Env: env}
	if _, ok, reason := core.CompileForBatch(Quorum{}, cfg); ok {
		t.Errorf("CompileForBatch(quorum, n=%d) eligible; want the named decline", over)
	} else if !strings.Contains(reason, "declined to compile") {
		t.Errorf("decline reason %q does not name the compile refusal", reason)
	}
}

// TestNilScheduleFailsOnBothEngines pins that a schedule factory returning
// nil fails the run on both engines: the batch lane must not run the colony
// with the adversary dropped while core.Run rejects it.
func TestNilScheduleFailsOnBothEngines(t *testing.T) {
	t.Parallel()
	env := sim.MustEnvironment([]float64{1, 0, 1})
	spec := faults.Spec{Salt: 17, NewSchedule: func() faults.Schedule { return nil }}
	for _, a := range []core.Algorithm{Simple{}, Optimal{}} {
		cfg := core.RunConfig{N: 64, Env: env, MaxRounds: 500, Seed: 3, Wrap: spec}
		if _, err := core.Run(a, cfg); err == nil {
			t.Errorf("%s: core.Run accepted a nil schedule", a.Name())
		}
		if _, ok, err := core.RunBatch(a, cfg, []uint64{3}); !ok || err == nil {
			t.Errorf("%s: core.RunBatch ok=%v err=%v, want an error from an eligible config", a.Name(), ok, err)
		}
	}
}
