package sim

import (
	"slices"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
)

// newFoldLane builds the minimal lane slice-set the capture-adoption fold
// reads: three ants committed to nests 1, 2, 2 with a 3-nest commitment
// census (index 0 is home), folded by a single shard.
func newFoldLane() *lane {
	return &lane{
		nest:    []NestID{1, 2, 2},
		quality: []float64{0.25, 0.5, 0.75},
		commit:  []int{0, 1, 2},
		actNest: []NestID{2, 1, 2},
		shards:  1,
	}
}

// listedCaptures is a CaptureLister replaying a fixed capture list, so the
// fold tests can pose captures without running a matcher.
type listedCaptures []int32

func (listedCaptures) Name() string { return "listed" }

func (listedCaptures) Match(int, []bool, *rng.Source, []int32, []bool) {}

func (l listedCaptures) Captures() []int32 { return l }

// TestAdoptCaptureModes pins the mode-dispatched adoption fold that replaced
// the per-call-site closures: every mode moves the ant and maintains the
// incremental census identically, and only the quality family touches the
// quality register.
func TestAdoptCaptureModes(t *testing.T) {
	t.Parallel()

	t.Run("plain", func(t *testing.T) {
		ln := newFoldLane()
		ln.adoptCapture(ln.commit, 0, 2, adoptPlain)
		if ln.nest[0] != 2 {
			t.Fatalf("nest[0] = %d, want 2", ln.nest[0])
		}
		if ln.commit[1] != 0 || ln.commit[2] != 3 {
			t.Fatalf("census = %v, want [0 0 3]", ln.commit)
		}
		if ln.quality[0] != 0.25 {
			t.Fatalf("plain adoption touched the quality register: q=%v", ln.quality[0])
		}
	})

	t.Run("qualOne", func(t *testing.T) {
		ln := newFoldLane()
		ln.adoptCapture(ln.commit, 1, 1, adoptQualOne)
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
		ln.adoptCapture(ln.commit, 2, 1, adoptQualZero)
		if ln.nest[2] != 1 {
			t.Fatalf("nest[2] = %d, want 1", ln.nest[2])
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
	// Ant 1: self-pair (capturedBy[1] = 1) → no fold.
	// Ant 2: uncaptured (and so not listed) → no fold.
	ln.capturedBy = []int32{2, 1, -1}
	ln.matcher = listedCaptures{0, 1}
	ln.foldCaptureAdopts(0, ln.commit, adoptQualOne)
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
	ln2.actNest = []NestID{2, 2, 2}
	ln2.capturedBy = []int32{-1, 2, -1} // ant 1 captured by ant 2: actNest 2 == nest[1]
	ln2.matcher = listedCaptures{1}
	ln2.foldCaptureAdopts(0, ln2.commit, adoptQualZero)
	if ln2.nest[1] != 2 || ln2.quality[1] != 0.5 {
		t.Fatalf("same-nest capture must not fold: nest=%d q=%v", ln2.nest[1], ln2.quality[1])
	}

	// Two shards: chunk 0 is capture {0} (ant 0 adopts ant 2's nest 2),
	// chunk 1 is capture {2} (ant 2 adopts ant 1's nest 1). Each chunk's
	// census changes land in its own slab.
	ln3 := newFoldLane()
	ln3.shards = 2
	ln3.capturedBy = []int32{2, -1, 1}
	ln3.matcher = listedCaptures{0, 2}
	slab0, slab1 := make([]int, 3), make([]int, 3)
	ln3.foldCaptureAdopts(0, slab0, adoptPlain)
	if ln3.nest[0] != 2 || ln3.nest[2] != 2 {
		t.Fatalf("chunk 0 folded nests %v, want ant 0 moved to 2 and ant 2 untouched", ln3.nest)
	}
	ln3.foldCaptureAdopts(1, slab1, adoptPlain)
	if ln3.nest[2] != 1 {
		t.Fatalf("chunk 1 left ant 2 at nest %d, want 1", ln3.nest[2])
	}
	if want0, want1 := []int{0, -1, 1}, []int{0, 1, -1}; !slices.Equal(slab0, want0) || !slices.Equal(slab1, want1) {
		t.Fatalf("slabs = %v, %v; want %v, %v", slab0, slab1, want0, want1)
	}
}
