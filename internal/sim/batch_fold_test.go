package sim

import (
	"reflect"
	"slices"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
)

// newFoldLane builds the minimal lane slice-set the capture-adoption fold
// reads: three ants committed to nests 1, 2, 2 with a 3-nest commitment
// census (index 0 is home), folded by a single shard.
func newFoldLane() *lane {
	return &lane{
		nest:    []uint8{1, 2, 2},
		quality: []float64{0.25, 0.5, 0.75},
		commit:  []int{0, 1, 2},
		actNest: []uint8{2, 1, 2},
		shards:  1,
	}
}

// listedCaptures is a CaptureLister replaying fixed capture and captor
// lists, so the fold tests can pose captures without running a matcher.
type listedCaptures struct{ captures, captors []int32 }

func (listedCaptures) Name() string { return "listed" }

func (listedCaptures) Match(int, []bool, *rng.Source, []int32, []bool) {}

func (l listedCaptures) Captures() []int32 { return l.captures }

func (l listedCaptures) Captors() []int32 { return l.captors }

// TestAdoptCaptureModes pins the two adoption folds foldCaptureAdopts
// serves: ObserveAdopt's (quality 1, a captured ant trusts its recruiter) and
// ObserveAdoptZero's (quality 0). Both move the ant and maintain the
// incremental census identically.
func TestAdoptCaptureModes(t *testing.T) {
	t.Parallel()

	t.Run("qualOne", func(t *testing.T) {
		ln := newFoldLane()
		// Ant 1 (nest 2) captured by ant 0, which advertises nest 1.
		ln.actNest = []uint8{1, 1, 2}
		ln.matcher = listedCaptures{captures: []int32{1}, captors: []int32{0}}
		ln.foldCaptureAdopts(0, ln.commit, 1)
		if ln.nest[1] != 1 {
			t.Fatalf("nest[1] = %d, want 1", ln.nest[1])
		}
		if ln.commit[1] != 2 || ln.commit[2] != 1 {
			t.Fatalf("census = %v, want [0 2 1]", ln.commit)
		}
		if ln.quality[1] != 1 {
			t.Fatalf("quality[1] = %v, want 1 (a captured ant trusts its recruiter)", ln.quality[1])
		}
	})

	t.Run("qualZero", func(t *testing.T) {
		ln := newFoldLane()
		// Ant 2 (nest 2) captured by ant 1, which advertises nest 1.
		ln.matcher = listedCaptures{captures: []int32{2}, captors: []int32{1}}
		ln.foldCaptureAdopts(0, ln.commit, 0)
		if ln.nest[2] != 1 {
			t.Fatalf("nest[2] = %d, want 1", ln.nest[2])
		}
		if ln.commit[1] != 2 || ln.commit[2] != 1 {
			t.Fatalf("census = %v, want [0 2 1]", ln.commit)
		}
		if ln.quality[2] != 0 {
			t.Fatalf("qualZero must zero quality: q=%v", ln.quality[2])
		}
	})
}

// TestFoldCaptureAdoptsScan pins the lockstep capture scan: only ants whose
// capturer is a different ant advertising a different nest fold, so self-pairs,
// uncaptured ants and same-nest captures are all no-ops; and a capture list
// split across shards folds each chunk into its own delta slab, touching only
// the chunk's ants.
func TestFoldCaptureAdoptsScan(t *testing.T) {
	t.Parallel()
	ln := newFoldLane()
	// Ant 0: captured by ant 2, which advertises nest 2 != nest[0]=1 → folds.
	// Ant 1: self-pair (captor 1) → no fold.
	// Ant 2: uncaptured (and so not listed) → no fold.
	ln.matcher = listedCaptures{captures: []int32{0, 1}, captors: []int32{2, 1}}
	ln.foldCaptureAdopts(0, ln.commit, 1)
	if ln.nest[0] != 2 || ln.quality[0] != 1 {
		t.Fatalf("ant 0 should adopt nest 2 with quality 1; got nest=%d q=%v", ln.nest[0], ln.quality[0])
	}
	if ln.nest[1] != 2 || ln.quality[1] != 0.5 {
		t.Fatalf("self-pair must not fold: nest=%d q=%v", ln.nest[1], ln.quality[1])
	}
	if ln.nest[2] != 2 || ln.quality[2] != 0.75 {
		t.Fatalf("uncaptured ant must not fold: nest=%d q=%v", ln.nest[2], ln.quality[2])
	}
	if ln.commit[1] != 0 || ln.commit[2] != 3 {
		t.Fatalf("census = %v, want [0 0 3]", ln.commit)
	}

	// A capturer advertising the ant's own nest is a no-op adoption.
	ln2 := newFoldLane()
	ln2.actNest = []uint8{2, 2, 2}
	// Ant 1 captured by ant 2: actNest 2 == nest[1].
	ln2.matcher = listedCaptures{captures: []int32{1}, captors: []int32{2}}
	ln2.foldCaptureAdopts(0, ln2.commit, 0)
	if ln2.nest[1] != 2 || ln2.quality[1] != 0.5 {
		t.Fatalf("same-nest capture must not fold: nest=%d q=%v", ln2.nest[1], ln2.quality[1])
	}

	// Two shards: chunk 0 is capture {0} (ant 0 adopts ant 2's nest 2),
	// chunk 1 is capture {2} (ant 2 adopts ant 1's nest 1). Each chunk's
	// census changes land in its own slab.
	ln3 := newFoldLane()
	ln3.shards = 2
	ln3.matcher = listedCaptures{captures: []int32{0, 2}, captors: []int32{2, 1}}
	slab0, slab1 := make([]int, 3), make([]int, 3)
	ln3.foldCaptureAdopts(0, slab0, 1)
	if ln3.nest[0] != 2 || ln3.nest[2] != 2 {
		t.Fatalf("chunk 0 folded nests %v, want ant 0 moved to 2 and ant 2 untouched", ln3.nest)
	}
	ln3.foldCaptureAdopts(1, slab1, 1)
	if ln3.nest[2] != 1 {
		t.Fatalf("chunk 1 left ant 2 at nest %d, want 1", ln3.nest[2])
	}
	if want0, want1 := []int{0, -1, 1}, []int{0, 1, -1}; !slices.Equal(slab0, want0) || !slices.Equal(slab1, want1) {
		t.Fatalf("slabs = %v, %v; want %v, %v", slab0, slab1, want0, want1)
	}
}

// TestLockstepPairsMatchGeneralPath runs every (emit, observe) pair the
// lockstep path admits and Validate accepts, inside a Simple-shaped cycle
// (search, then the pair, a recruit and a go round), on both stepping paths at
// 1 and 3 shards: each round, every register, the populations and the census
// must equal the single-shard general path's, and so must the round's error.
// A lockstep-admitted opcode that lockFoldShard does not fold shows up here
// as a diverging register: the lockstep path once admitted ObserveNestLatch
// and ObserveRecruitNest and dropped their captures. A second cycle opens
// with a search that does not commit, so ants recruit or go from home and
// both paths must report the same emit error: the lockstep path once let an
// ant actively recruit for the home nest.
func TestLockstepPairsMatchGeneralPath(t *testing.T) {
	t.Parallel()
	env := MustEnvironment([]float64{1, 0, 0.6, 0})
	const n, rounds = 300, 30
	params := ProgramParams{
		Tau: 2, FloorDiv: 8, NEstDelta: 0.2, Threshold: 0.5,
		Count: func(c, n int, src *rng.Source) int {
			return c + int(src.Uint64n(3)) - 1
		},
		Assess: func(q float64, src *rng.Source) float64 {
			if src.Uint64n(4) == 0 {
				return 1 - q
			}
			return q
		},
	}
	// snapshot is one round's registers, populations and census, or the
	// round's error (the registers of an erring round are not compared).
	type snapshot struct {
		nest           []uint8
		count          []int32
		quality        []float64
		counts, commit []int
		err            string
	}
	// The discovery cycle must run every round without error on every path;
	// only the cycle that does not commit may stop on an emit error.
	cycles := []struct {
		name  string
		first ProgramState
		errs  bool
	}{
		{"", ProgramState{Emit: EmitSearch, Observe: ObserveDiscovery, Next: 1}, false},
		{"nodiscover/", ProgramState{Emit: EmitSearch, Observe: ObserveCountQual, Next: 1}, true},
	}
	for _, cy := range cycles {
		pairs := 0
		for e := EmitSearch; e <= EmitRecruitTransport; e++ {
			for o := ObserveDiscovery; o <= ObserveInform; o++ {
				prog := Program{
					Algorithm: "pair",
					States: []ProgramState{
						cy.first,
						{Emit: e, Observe: o, Next: 2},
						{Emit: EmitRecruitPop, Observe: ObserveAdopt, Next: 3},
						{Emit: EmitGotoNest, Observe: ObserveCount, Next: 1},
					},
					Params: params,
				}
				if !prog.Lockstep() || prog.Validate() != nil {
					continue
				}
				pairs++
				t.Run(cy.name+e.String()+"/"+o.String(), func(t *testing.T) {
					run := func(lockstep bool, shards int) []snapshot {
						b, err := NewBatch(env, prog, n)
						if err != nil {
							t.Fatal(err)
						}
						b.lockstep = lockstep
						ln := newLane(b, shards)
						defer ln.close()
						if err := ln.reset(5); err != nil {
							t.Fatal(err)
						}
						phase := prog.Init
						var out []snapshot
						for r := 1; r <= rounds; r++ {
							ln.round = r
							if lockstep {
								phase, err = ln.stepLockstep(phase)
							} else {
								err = ln.stepGeneral()
							}
							if err != nil {
								return append(out, snapshot{err: err.Error()})
							}
							out = append(out, snapshot{nest: slices.Clone(ln.nest), count: slices.Clone(ln.count),
								quality: slices.Clone(ln.quality), counts: slices.Clone(ln.counts), commit: slices.Clone(ln.commit)})
						}
						return out
					}
					want := run(false, 1)
					if last := want[len(want)-1]; !cy.errs && last.err != "" {
						t.Fatalf("lockstep=false shards=1 round %d: %s", len(want), last.err)
					}
					for _, c := range []struct {
						lockstep bool
						shards   int
					}{{false, 3}, {true, 1}, {true, 3}} {
						got := run(c.lockstep, c.shards)
						for r := range min(len(got), len(want)) {
							if got[r].err != want[r].err {
								t.Fatalf("lockstep=%v shards=%d round %d: error %q, general path's %q",
									c.lockstep, c.shards, r+1, got[r].err, want[r].err)
							}
							if !reflect.DeepEqual(got[r], want[r]) {
								t.Fatalf("lockstep=%v shards=%d round %d: registers or census differ from the general path",
									c.lockstep, c.shards, r+1)
							}
						}
						if len(got) != len(want) {
							t.Fatalf("lockstep=%v shards=%d ran %d rounds, the general path %d", c.lockstep, c.shards, len(got), len(want))
						}
					}
				})
			}
		}
		// Search and go × six search/go folds, four drawn recruits × three
		// recruit folds.
		if pairs != 24 {
			t.Fatalf("%sran %d lockstep pairs, want 24", cy.name, pairs)
		}
	}
}
