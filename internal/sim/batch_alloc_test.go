package sim

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
)

// This file pins the zero-allocation contract of the batch hot path: once a
// lane exists, stepping rounds must never touch the heap — for any compiled
// program shape and any stock matcher. The program tables below mirror the
// compiled algorithm forms of internal/algo (sim cannot import algo, so the
// tables are restated; the shapes matter, not the exact parameters).

// allocTestPrograms returns program tables covering every opcode family the
// compiled inventory emits: the Algorithm 3 cycle (simple), both
// Algorithm 2 variants, the three recruit-draw extensions, the
// quorum-transport strategy and the noisy-perception model.
func allocTestPrograms() map[string]Program {
	simple := Program{
		Algorithm: "simple",
		States: []ProgramState{
			{Emit: EmitSearch, Observe: ObserveDiscovery, Next: 1},
			{Emit: EmitRecruitPop, Observe: ObserveAdopt, Next: 2},
			{Emit: EmitGotoNest, Observe: ObserveCount, Next: 1},
		},
	}
	optimal := func(literal bool) Program {
		recount := ObserveRecountRebase
		if literal {
			recount = ObserveRecountLiteral
		}
		return Program{
			Algorithm: "optimal",
			States: []ProgramState{
				{Emit: EmitSearch, Observe: ObserveDiscoverBranch, Next: 1, NextB: 10},
				{Emit: EmitRecruitBit, Arg: 1, Observe: ObserveRecruitNest, Next: 2},
				{Emit: EmitGotoScratch, Observe: ObserveCompareR2, Next: 3, NextB: 5, NextC: 7},
				{Emit: EmitGotoNest, Observe: ObserveNone, Next: 4},
				{Emit: EmitRecruitBit, Arg: 0, Observe: ObserveFinalEq, Next: 1, NextB: 16},
				{Emit: EmitRecruitBit, Arg: 0, Observe: ObserveNone, Next: 6},
				{Emit: EmitGotoNest, Observe: ObserveNone, Next: 10},
				{Emit: EmitGotoNest, Observe: recount, Next: 8, NextB: 9},
				{Emit: EmitGotoNest, Observe: ObserveNone, Next: 1},
				{Emit: EmitGotoNest, Observe: ObserveNone, Next: 10},
				{Emit: EmitGotoNest, Observe: ObserveNone, Next: 11},
				{Emit: EmitRecruitBit, Arg: 0, Observe: ObserveAdoptPend, Next: 12, NextB: 14},
				{Emit: EmitGotoNest, Observe: ObserveNone, Next: 13},
				{Emit: EmitGotoNest, Observe: ObserveNone, Next: 10},
				{Emit: EmitGotoNest, Observe: ObserveNone, Next: 15},
				{Emit: EmitGotoNest, Observe: ObserveNone, Next: 16},
				{Emit: EmitRecruitBit, Arg: 1, Observe: ObserveNestLatch, Next: 16, Final: true},
			},
		}
	}
	adaptive := Program{
		Algorithm: "adaptive",
		States: []ProgramState{
			{Emit: EmitSearch, Observe: ObserveDiscovery, Next: 1},
			{Emit: EmitRecruitAdaptive, Observe: ObserveAdopt, Next: 2},
			{Emit: EmitGotoNest, Observe: ObserveCount, Next: 1},
		},
		Params: ProgramParams{Tau: 2, FloorDiv: 4},
	}
	quality := Program{
		Algorithm: "quality",
		States: []ProgramState{
			{Emit: EmitSearch, Observe: ObserveDiscovery, Next: 1},
			{Emit: EmitRecruitQual, Observe: ObserveAdoptZero, Next: 2},
			{Emit: EmitGotoNest, Observe: ObserveCountQual, Next: 1},
		},
	}
	approxn := Program{
		Algorithm: "approxn",
		States: []ProgramState{
			{Emit: EmitSearch, Observe: ObserveDiscovery, Next: 1},
			{Emit: EmitRecruitApproxN, Observe: ObserveAdopt, Next: 2},
			{Emit: EmitGotoNest, Observe: ObserveCount, Next: 1},
		},
		Params: ProgramParams{NEstDelta: 0.3},
	}
	quorum := Program{
		Algorithm: "quorum",
		States: []ProgramState{
			{Emit: EmitSearch, Observe: ObserveDiscoverQuorum, Next: 1},
			{Emit: EmitRecruitPop, Observe: ObserveQuorumAdopt, Next: 2},
			{Emit: EmitGotoNest, Observe: ObserveQuorumCheck, Next: 1, NextB: 3},
			{Emit: EmitRecruitTransport, Observe: ObserveQuorumTransport, Next: 4, NextB: 2, Final: true},
			{Emit: EmitGotoNest, Observe: ObserveCount, Next: 3, Final: true},
		},
		Params: ProgramParams{QuorumMult: 1.5, QuorumCarry: 3, QuorumDocility: 0.25},
	}
	noisy := Program{
		Algorithm: "noisy",
		States: []ProgramState{
			{Emit: EmitSearch, Observe: ObserveDiscoverNoisy, Next: 1},
			{Emit: EmitRecruitPop, Observe: ObserveAdopt, Next: 2},
			{Emit: EmitGotoNest, Observe: ObserveCountNoisy, Next: 1},
		},
		Params: ProgramParams{
			Threshold: 0.5,
			Count: func(c, n int, src *rng.Source) int {
				// A drawing hook (the noisy shape's whole point) that must
				// not allocate either.
				return c + int(src.Uint64n(3)) - 1
			},
		},
	}
	return map[string]Program{
		"simple":          simple,
		"optimal":         optimal(false),
		"optimal-literal": optimal(true),
		"adaptive":        adaptive,
		"quality":         quality,
		"approxn":         approxn,
		"quorum":          quorum,
		"noisy":           noisy,
	}
}

// TestBatchStepAllocationFree asserts testing.AllocsPerRun == 0 over the lane
// step functions — stepLockstep for lockstep programs, stepGeneral otherwise —
// for every compiled program shape, after one warm-up replicate has sized the
// scratch (threshold tables and matcher buffers grow on first use).
func TestBatchStepAllocationFree(t *testing.T) {
	env := MustEnvironment([]float64{1, 0, 0.6, 0})
	const n = 192
	specs := []struct {
		tag  string
		spec FaultSpec
	}{
		{"", FaultSpec{}},
		// The fault lanes force the general path and route faulted ants
		// through the synthetic states — none of which may touch the heap.
		{"+faults", FaultSpec{CrashFraction: 0.1, CrashWindow: 40, ByzantineFraction: 0.05, SleepFraction: 0.1, SleepWindow: 40, Salt: 9}},
	}
	// Shard count 1 exercises the inline phase dispatch, 4 the pooled fan-out:
	// the sharded path must be exactly as heap-silent as the sequential one
	// (phase functions are prebound, reductions use preallocated slabs).
	for _, shards := range []int{1, 4} {
		for name, base := range allocTestPrograms() {
			for _, fs := range specs {
				name, prog, fs, shards := name, base, fs, shards
				prog.Params.Faults = fs.spec
				t.Run(fmt.Sprintf("%s%s/shards=%d", name, fs.tag, shards), func(t *testing.T) {
					b, err := NewBatch(env, prog, n)
					if err != nil {
						t.Fatal(err)
					}
					ln := newLane(b, shards)
					defer ln.close()
					if _, err := ln.runReplicate(0, 7, 300, 1, nil); err != nil {
						t.Fatalf("warm-up replicate: %v", err)
					}
					ln.reset(11)
					phase := prog.Init
					allocs := testing.AllocsPerRun(200, func() {
						var err error
						if ln.lockstep {
							phase, err = ln.stepLockstep(phase)
						} else {
							err = ln.stepGeneral()
						}
						if err != nil {
							t.Fatal(err)
						}
					})
					if allocs != 0 {
						t.Errorf("%s: %v allocs per round on the %s path, want 0",
							name, allocs, map[bool]string{true: "lockstep", false: "general"}[ln.lockstep])
					}
					if fs.spec.Enabled() && ln.lockstep {
						t.Errorf("%s: fault lanes must force the general path", name)
					}
				})
			}
		}
	}
}

// TestBatchStepAllocationFreeStockMatchers repeats the assertion with the
// ablation matchers driving the pairing (they reuse scratch too — the
// simultaneous model's reservoir counters once allocated per call).
func TestBatchStepAllocationFreeStockMatchers(t *testing.T) {
	env := MustEnvironment([]float64{1, 0})
	const n = 128
	progs := allocTestPrograms()
	for _, matcher := range []string{"simultaneous", "rendezvous"} {
		matcher := matcher
		for _, name := range []string{"simple", "optimal"} {
			prog := progs[name]
			t.Run(matcher+"/"+name, func(t *testing.T) {
				factory := func() Matcher {
					if matcher == "simultaneous" {
						return &SimultaneousMatcher{}
					}
					return &RendezvousMatcher{}
				}
				b, err := NewBatch(env, prog, n, WithBatchMatcher(factory))
				if err != nil {
					t.Fatal(err)
				}
				ln := newLane(b, 1)
				if _, err := ln.runReplicate(0, 7, 300, 1, nil); err != nil {
					t.Fatalf("warm-up replicate: %v", err)
				}
				ln.reset(11)
				phase := prog.Init
				allocs := testing.AllocsPerRun(200, func() {
					var err error
					if ln.lockstep {
						phase, err = ln.stepLockstep(phase)
					} else {
						err = ln.stepGeneral()
					}
					if err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%v allocs per round, want 0", allocs)
				}
			})
		}
	}
}

// TestLaneBytesPerAnt pins what a lane costs per ant: the heap bytes one
// single-worker (*Batch).Run of one seed allocates at n = 2^16, k = 16,
// nearly all of them the lane's and the matcher's per-ant columns. Rounds
// allocate nothing (the tests above), so the short budget changes nothing.
// The figure is rounded to whole bytes: the run's fixed allocations (the
// lane struct, the result, and a few hundred bytes that vary with the
// runtime's bookkeeping and the race detector) add about 0.1 B/ant. Nest
// ids take one byte per column, a lockstep lane allocates none of the
// general path's state, scratch and slot columns, and no lane holds RNG
// state per ant: simple reads 32 B/ant (64 with a 32-byte stream per ant,
// 99 with 8-byte nest ids and every column allocated), and optimal's four
// nest columns save 7 bytes each against its 86.
func TestLaneBytesPerAnt(t *testing.T) {
	const n, k = 1 << 16, 16
	env, err := Uniform(k, 2)
	if err != nil {
		t.Fatal(err)
	}
	progs := allocTestPrograms()
	for _, tc := range []struct {
		name     string
		lockstep bool
		max      float64
	}{
		{"simple", true, 33},
		{"optimal", false, 86 - 4*7},
	} {
		b, err := NewBatch(env, progs[tc.name], n, WithBatchWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := b.Run([]uint64{1}, 30, 1); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perAnt := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("%s: %.2f B/ant", tc.name, perAnt)
		if math.Round(perAnt) > tc.max {
			t.Errorf("%s: a run allocated %.2f B/ant, want <= %v", tc.name, perAnt, tc.max)
		}

		ln := newLane(b, 1)
		if ln.lockstep != tc.lockstep {
			t.Fatalf("%s: lockstep = %v, want %v", tc.name, ln.lockstep, tc.lockstep)
		}
		general := map[string]bool{
			"state":      ln.state != nil,
			"nestT":      ln.nestT != nil,
			"countT":     ln.countT != nil,
			"slotOf":     ln.slotOf != nil,
			"recruiters": ln.recruiters != nil,
		}
		for col, allocated := range general {
			if allocated == tc.lockstep {
				t.Errorf("%s: column %s allocated = %v on the %s path", tc.name, col, allocated,
					map[bool]string{true: "lockstep", false: "general"}[tc.lockstep])
			}
		}
	}
}
