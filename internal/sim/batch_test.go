package sim

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
)

// simpleProgram is the Algorithm 3 state table used by the batch tests: the
// same three-state machine algo.SimplePFSM declares, lowered to opcodes.
func simpleProgram() Program {
	return Program{
		Algorithm: "batch-test-simple",
		Init:      0,
		States: []ProgramState{
			{Emit: EmitSearch, Observe: ObserveDiscovery, Next: 1},
			{Emit: EmitRecruitPop, Observe: ObserveAdopt, Next: 2},
			{Emit: EmitGotoNest, Observe: ObserveCount, Next: 1},
		},
	}
}

// scalarSimpleAnt mirrors the compiled program as a hand-written sim.Agent,
// drawing randomness exactly as algo.SimpleAnt does. It is the in-package
// oracle for the batch engine (the cross-package oracle against the real
// algorithms lives in internal/algo).
type scalarSimpleAnt struct {
	n       int
	src     *rng.Source
	state   int
	nest    NestID
	count   int
	quality float64
}

func (a *scalarSimpleAnt) Act(int) Action {
	switch a.state {
	case 0:
		return Search()
	case 1:
		b := false
		if a.quality > 0 {
			b = a.src.Bernoulli(float64(a.count) / float64(a.n))
		}
		return Recruit(b, a.nest)
	default:
		return Goto(a.nest)
	}
}

func (a *scalarSimpleAnt) Observe(_ int, out Outcome) {
	switch a.state {
	case 0:
		a.nest, a.count, a.quality = out.Nest, out.Count, out.Quality
		a.state = 1
	case 1:
		if out.Nest != a.nest {
			a.nest = out.Nest
			a.quality = 1
		}
		a.state = 2
	default:
		a.count = out.Count
		a.state = 1
	}
}

// buildScalarColony wires the scalar oracle colony with the exact stream
// derivation the core runner uses: engine streams from the root seed, ant i
// from root.Split(2).Split(i).
func buildScalarColony(n int, seed uint64) []Agent {
	agents := make([]Agent, n)
	antRoot := rng.New(seed).Split(2)
	for i := range agents {
		agents[i] = &scalarSimpleAnt{n: n, src: antRoot.Split(uint64(i)), state: 0}
	}
	return agents
}

func TestProgramValidate(t *testing.T) {
	t.Parallel()
	if err := simpleProgram().Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	cases := map[string]Program{
		"empty":       {Algorithm: "x"},
		"init range":  {Algorithm: "x", Init: 3, States: []ProgramState{{}}},
		"next range":  {Algorithm: "x", States: []ProgramState{{Next: 9}}},
		"bad emit":    {Algorithm: "x", States: []ProgramState{{Emit: 99}}},
		"bad observe": {Algorithm: "x", States: []ProgramState{{Observe: 99}}},
		"bad recruit bit": {Algorithm: "x", States: []ProgramState{
			{Emit: EmitRecruitBit, Arg: 2, Observe: ObserveNone},
		}},
		"nextB range": {Algorithm: "x", States: []ProgramState{
			{Emit: EmitSearch, Observe: ObserveDiscoverBranch, Next: 0, NextB: 7},
		}},
		"nextC range": {Algorithm: "x", States: []ProgramState{
			{Emit: EmitGotoScratch, Observe: ObserveCompareR2, Next: 0, NextB: 0, NextC: 7},
		}},
	}
	for name, prog := range cases {
		if err := prog.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid program", name)
		}
	}
}

// TestProgramTraits pins the trait classification that selects the execution
// path: the simple program is lockstep and non-deciding; any branching
// observe or non-uniform emit forces the general path; Final states make a
// program deciding.
func TestProgramTraits(t *testing.T) {
	t.Parallel()
	if p := simpleProgram(); !p.Lockstep() || p.Decides() || !p.NeedsAntRNG() {
		t.Errorf("simple program traits: lockstep=%v decides=%v antRNG=%v, want true/false/true",
			p.Lockstep(), p.Decides(), p.NeedsAntRNG())
	}
	p := decidingProgram()
	if p.Lockstep() {
		t.Error("a program with branching observes classified as lockstep")
	}
	if !p.Decides() {
		t.Error("a program with a Final state classified as non-deciding")
	}
	if p.NeedsAntRNG() {
		t.Error("a program without EmitRecruitPop claims to need ant RNG")
	}
}

// decidingProgram is a minimal general-path program: search once, then
// recruit for the discovered nest forever as a Final state — the skeleton of
// Algorithm 2's final loop.
func decidingProgram() Program {
	return Program{
		Algorithm: "batch-test-decider",
		Init:      0,
		States: []ProgramState{
			{Emit: EmitSearch, Observe: ObserveDiscoverBranch, Next: 1, NextB: 1},
			{Emit: EmitRecruitBit, Arg: 1, Observe: ObserveNestLatch, Next: 1, Final: true},
		},
	}
}

// TestBatchDecidingProgram exercises the general path's result bookkeeping:
// a single-ant colony decides and converges in round one, and the decided
// count lands in BatchResult.Decided.
func TestBatchDecidingProgram(t *testing.T) {
	t.Parallel()
	env := MustEnvironment([]float64{1})
	b, err := NewBatch(env, decidingProgram(), 1)
	if err != nil {
		t.Fatal(err)
	}
	results, err := b.Run([]uint64{1, 2, 3}, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if !res.Solved || res.Winner != 1 || res.Rounds != 1 {
			t.Fatalf("replicate %d: %+v, want solved winner 1 in round 1", i, res)
		}
		if res.Decided != 1 {
			t.Fatalf("replicate %d: Decided = %d, want 1", i, res.Decided)
		}
	}
}

// TestBatchDecidedGatesConvergence pins the census gate: with a deciding
// program, unanimous commitment alone must not count as convergence until
// every ant reaches a Final state — mirroring core.Census.Converged for
// colonies implementing core.Decided.
func TestBatchDecidedGatesConvergence(t *testing.T) {
	t.Parallel()
	// All ants commit to the lone good nest in round one and then shuttle to
	// it forever, but the Final state (2) is unreachable.
	prog := Program{
		Algorithm: "batch-test-undecided",
		Init:      0,
		States: []ProgramState{
			{Emit: EmitSearch, Observe: ObserveDiscoverBranch, Next: 1, NextB: 1},
			{Emit: EmitGotoNest, Observe: ObserveNone, Next: 1},
			{Emit: EmitGotoNest, Observe: ObserveNone, Next: 2, Final: true},
		},
	}
	env := MustEnvironment([]float64{1})
	b, err := NewBatch(env, prog, 8)
	if err != nil {
		t.Fatal(err)
	}
	results, err := b.Run([]uint64{1}, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if res.Solved {
		t.Fatalf("undecided colony reported solved: %+v", res)
	}
	if res.Rounds != 30 {
		t.Fatalf("undecided colony stopped at round %d, want the full budget", res.Rounds)
	}
	if res.Decided != 0 {
		t.Fatalf("Decided = %d, want 0", res.Decided)
	}
	if res.Committed[1] != 8 {
		t.Fatalf("census %v, want unanimous commitment to nest 1", res.Committed)
	}
}

// TestBatchGeneralPathReportsProgramErrors covers the general path's protocol
// validation: dereferencing an unset scratch nest and actively recruiting for
// the home nest both surface clean errors.
func TestBatchGeneralPathReportsProgramErrors(t *testing.T) {
	t.Parallel()
	env := MustEnvironment([]float64{1})
	cases := map[string]Program{
		"goto scratch unset": {
			Algorithm: "broken-scratch",
			States: []ProgramState{
				{Emit: EmitGotoScratch, Observe: ObserveCompareR2, Next: 0, NextB: 0, NextC: 0},
			},
		},
		"active recruit for home": {
			Algorithm: "broken-recruit",
			States: []ProgramState{
				{Emit: EmitRecruitBit, Arg: 1, Observe: ObserveFinalEq, Next: 0, NextB: 0},
			},
		},
	}
	for name, prog := range cases {
		b, err := NewBatch(env, prog, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := b.Run([]uint64{1}, 10, 1); err == nil {
			t.Errorf("%s: expected a protocol error", name)
		}
	}
}

func TestNewBatchRejectsBadInputs(t *testing.T) {
	t.Parallel()
	env := MustEnvironment([]float64{1, 0})
	if _, err := NewBatch(Environment{}, simpleProgram(), 8); err == nil {
		t.Error("empty environment accepted")
	}
	if _, err := NewBatch(env, simpleProgram(), 0); err == nil {
		t.Error("zero colony accepted")
	}
	if _, err := NewBatch(env, Program{Algorithm: "x"}, 8); err == nil {
		t.Error("invalid program accepted")
	}
	b, err := NewBatch(env, simpleProgram(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run(nil, 10, 1); err == nil {
		t.Error("empty seed list accepted")
	}
	if _, err := b.Run([]uint64{1}, 0, 1); err == nil {
		t.Error("non-positive round budget accepted")
	}
	// The ant-index columns are int32 (state buckets, capture indices), so a
	// colony beyond MaxInt32 must be rejected up front with a reason naming
	// the limit — not mis-indexed. The check must fire before any column
	// allocation: at that size the slices themselves would be hundreds of
	// gigabytes.
	if _, err := NewBatch(env, simpleProgram(), math.MaxInt32+1); err == nil {
		t.Error("colony beyond the int32 ant-index limit accepted")
	} else if !strings.Contains(err.Error(), "int32 ant-index limit") {
		t.Errorf("oversize-colony error %q does not name the int32 limit", err)
	}
	// The boundary itself is representable and must construct (lanes size
	// their columns lazily, so constructing the Batch is cheap even here).
	if _, err := NewBatch(env, simpleProgram(), math.MaxInt32); err != nil {
		t.Errorf("NewBatch(n=MaxInt32): %v", err)
	}
	// The lanes fold captures from the matcher's capture list only, so a
	// factory whose matchers list no captures is rejected by name.
	unlisted := WithBatchMatcher(func() Matcher { return tableOnlyMatcher{} })
	if _, err := NewBatch(env, simpleProgram(), 8, unlisted); !errors.Is(err, ErrNoCaptureList) {
		t.Errorf("matcher without CaptureLister: err = %v, want ErrNoCaptureList", err)
	} else if !strings.Contains(err.Error(), "table-only") {
		t.Errorf("ErrNoCaptureList %q does not name the matcher", err)
	}
}

// tableOnlyMatcher is a Matcher that implements no CaptureLister.
type tableOnlyMatcher struct{}

func (tableOnlyMatcher) Name() string { return "table-only" }

func (tableOnlyMatcher) Match(int, []bool, *rng.Source, []int32, []bool) {}

// TestBatchMatchesScalarRoundForRound is the engine-level golden equivalence
// check: for equal seeds, every round's populations and commitment census
// must be identical between the batch engine and a scalar Engine running the
// equivalent agents.
func TestBatchMatchesScalarRoundForRound(t *testing.T) {
	t.Parallel()
	const (
		n         = 96
		maxRounds = 300
	)
	env := MustEnvironment([]float64{1, 0, 1, 0, 0})
	seeds := []uint64{1, 7, 42, 2015, 0xdeadbeef}

	type roundRec struct {
		counts []int
		commit []int
	}
	// Scalar reference: step an Engine manually, recording per-round state.
	scalar := make([][]roundRec, len(seeds))
	for si, seed := range seeds {
		agents := buildScalarColony(n, seed)
		eng, err := New(env, agents, WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < maxRounds; r++ {
			if err := eng.Step(); err != nil {
				t.Fatalf("seed %d: scalar step: %v", seed, err)
			}
			commit := make([]int, env.K()+1)
			for _, a := range agents {
				commit[a.(*scalarSimpleAnt).nest]++
			}
			scalar[si] = append(scalar[si], roundRec{counts: eng.Counts(), commit: commit})
		}
	}

	var mu sync.Mutex
	batchRecs := make([][]roundRec, len(seeds))
	probe := func(rep, round int, counts, committed []int) {
		rec := roundRec{
			counts: append([]int(nil), counts...),
			commit: append([]int(nil), committed...),
		}
		mu.Lock()
		batchRecs[rep] = append(batchRecs[rep], rec)
		mu.Unlock()
	}
	b, err := NewBatch(env, simpleProgram(), n, WithBatchProbe(probe))
	if err != nil {
		t.Fatal(err)
	}
	// A window larger than the budget keeps every replicate running all
	// maxRounds rounds so the trace lengths line up with the scalar loop.
	if _, err := b.Run(seeds, maxRounds, maxRounds+1); err != nil {
		t.Fatal(err)
	}

	for si, seed := range seeds {
		if got, want := len(batchRecs[si]), len(scalar[si]); got != want {
			t.Fatalf("seed %d: batch ran %d rounds, scalar %d", seed, got, want)
		}
		for r := range scalar[si] {
			if !equalInts(batchRecs[si][r].counts, scalar[si][r].counts) {
				t.Fatalf("seed %d round %d: populations diverge: batch %v scalar %v",
					seed, r+1, batchRecs[si][r].counts, scalar[si][r].counts)
			}
			if !equalInts(batchRecs[si][r].commit, scalar[si][r].commit) {
				t.Fatalf("seed %d round %d: commitments diverge: batch %v scalar %v",
					seed, r+1, batchRecs[si][r].commit, scalar[si][r].commit)
			}
		}
	}
}

// TestBatchSolvesAndReportsCensus checks the result bookkeeping: solved
// replicates report a good winner, a full census and a plausible round count.
func TestBatchSolvesAndReportsCensus(t *testing.T) {
	t.Parallel()
	const n = 128
	env := MustEnvironment([]float64{1, 1, 0, 0})
	b, err := NewBatch(env, simpleProgram(), n)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, 16)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	results, err := b.Run(seeds, 4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Seed != seeds[i] {
			t.Fatalf("replicate %d: seed %d out of order", i, res.Seed)
		}
		if !res.Solved {
			t.Fatalf("replicate %d (seed %d) failed to converge in 4000 rounds", i, res.Seed)
		}
		if !env.Good(res.Winner) {
			t.Fatalf("replicate %d: winner %d is not a good nest", i, res.Winner)
		}
		if res.WinnerQuality != env.Quality(res.Winner) {
			t.Fatalf("replicate %d: winner quality %v != q(%d)", i, res.WinnerQuality, res.Winner)
		}
		total := 0
		for _, c := range res.Committed {
			total += c
		}
		if total != n || res.Committed[res.Winner] != n {
			t.Fatalf("replicate %d: census %v does not show unanimity of %d ants", i, res.Committed, n)
		}
		if res.Rounds < 1 || res.Rounds > 4000 {
			t.Fatalf("replicate %d: implausible round count %d", i, res.Rounds)
		}
		if res.Decided != -1 {
			t.Fatalf("replicate %d: Decided = %d for a non-deciding program, want -1", i, res.Decided)
		}
	}

	// Determinism: a second run (single worker) reproduces the first exactly.
	b2, err := NewBatch(env, simpleProgram(), n, WithBatchWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	again, err := b2.Run(seeds, 4000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if results[i].Rounds != again[i].Rounds || results[i].Winner != again[i].Winner {
			t.Fatalf("replicate %d not deterministic across worker counts: %+v vs %+v", i, results[i], again[i])
		}
	}
}

// TestBatchReportsProgramErrors ensures a program that emits an invalid call
// surfaces a clean error instead of corrupting memory.
func TestBatchReportsProgramErrors(t *testing.T) {
	t.Parallel()
	env := MustEnvironment([]float64{1})
	// go(nest) in the initial state dereferences the zero nest register.
	prog := Program{
		Algorithm: "broken",
		States:    []ProgramState{{Emit: EmitGotoNest, Observe: ObserveCount, Next: 0}},
	}
	b, err := NewBatch(env, prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Run([]uint64{1}, 10, 1); err == nil {
		t.Fatal("expected an error from go on the zero nest register")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
