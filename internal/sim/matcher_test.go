package sim

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/gmrl/househunt/internal/rng"
)

// runMatch executes one matching round of m over n slots with the given
// active pattern and returns the filled assignment slices.
func runMatch(m Matcher, n int, active []bool, src *rng.Source) (capturedBy []int32, succeeded []bool) {
	capturedBy = make([]int32, n)
	succeeded = make([]bool, n)
	m.Match(n, active, src, capturedBy, succeeded)
	return capturedBy, succeeded
}

// checkMatchingInvariants verifies the structural properties shared by every
// matcher model: capturers are active and marked succeeded; capturedBy values
// are valid slots; passive slots never succeed.
func checkMatchingInvariants(t *testing.T, name string, n int, active []bool, capturedBy []int32, succeeded []bool) {
	t.Helper()
	for slot := 0; slot < n; slot++ {
		cb := int(capturedBy[slot])
		if cb < -1 || cb >= n {
			t.Fatalf("%s: capturedBy[%d] = %d out of range", name, slot, cb)
		}
		if cb >= 0 {
			if !active[cb] {
				t.Fatalf("%s: slot %d captured by passive slot %d", name, slot, cb)
			}
			if !succeeded[cb] {
				t.Fatalf("%s: capturer %d not marked succeeded", name, cb)
			}
		}
		if succeeded[slot] && !active[slot] {
			t.Fatalf("%s: passive slot %d marked succeeded", name, slot)
		}
	}
	// Every succeeded slot must actually appear as a capturer.
	captures := make(map[int32]int, n)
	for slot := 0; slot < n; slot++ {
		if capturedBy[slot] >= 0 {
			captures[capturedBy[slot]]++
		}
	}
	for slot := 0; slot < n; slot++ {
		if succeeded[slot] && captures[int32(slot)] == 0 {
			t.Fatalf("%s: slot %d succeeded but captured nobody", name, slot)
		}
	}
}

// checkOneToOne verifies the stricter Algorithm-1 matching property: the pairs
// form a partial matching (each ant appears in at most one pair, as either
// element), which the paper's process guarantees.
func checkOneToOne(t *testing.T, name string, n int, capturedBy []int32, succeeded []bool) {
	t.Helper()
	for slot := 0; slot < n; slot++ {
		if capturedBy[slot] >= 0 && int(capturedBy[slot]) != slot {
			if succeeded[slot] {
				t.Fatalf("%s: slot %d both captured and succeeded", name, slot)
			}
		}
	}
	seen := make(map[int32]bool, n)
	for slot := 0; slot < n; slot++ {
		cb := capturedBy[slot]
		if cb < 0 {
			continue
		}
		if int(cb) != slot && seen[cb] {
			t.Fatalf("%s: capturer %d captured two ants", name, cb)
		}
		seen[cb] = true
	}
}

func TestMatcherInvariantsQuick(t *testing.T) {
	t.Parallel()
	src := rng.New(7)
	for _, m := range Matchers() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			f := func(sizeRaw uint8, pattern uint64, seed uint16) bool {
				n := int(sizeRaw%64) + 1
				active := make([]bool, n)
				anyActive := false
				for i := range active {
					active[i] = pattern&(1<<(uint(i)%64)) != 0
					anyActive = anyActive || active[i]
				}
				_ = anyActive
				local := src.Split(uint64(seed))
				capturedBy, succeeded := runMatch(m, n, active, local)
				checkMatchingInvariants(t, m.Name(), n, active, capturedBy, succeeded)
				if m.Name() != "simultaneous" {
					checkOneToOne(t, m.Name(), n, capturedBy, succeeded)
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMatchersEmptyAndSingle(t *testing.T) {
	t.Parallel()
	src := rng.New(9)
	for _, m := range Matchers() {
		// Empty pool: no panic, nothing set.
		runMatch(m, 0, nil, src)

		// Single passive ant: nothing happens.
		capturedBy, succeeded := runMatch(m, 1, []bool{false}, src)
		if capturedBy[0] != -1 || succeeded[0] {
			t.Fatalf("%s: single passive ant got matched", m.Name())
		}
	}
}

func TestAlgorithmOneSelfRecruitWhenAlone(t *testing.T) {
	t.Parallel()
	// A single active ant must pair with itself ("forced to recruit itself",
	// paper §3): the only possible draw is the ant's own slot.
	src := rng.New(11)
	m := &AlgorithmOneMatcher{}
	for trial := 0; trial < 50; trial++ {
		capturedBy, succeeded := runMatch(m, 1, []bool{true}, src)
		if capturedBy[0] != 0 || !succeeded[0] {
			t.Fatalf("lone active ant: capturedBy=%v succeeded=%v", capturedBy, succeeded)
		}
	}
}

func TestAlgorithmOnePermutationPriority(t *testing.T) {
	t.Parallel()
	// With all ants active, captured ants must never also succeed: being
	// captured earlier in the permutation removes the chance to recruit.
	src := rng.New(13)
	m := &AlgorithmOneMatcher{}
	const n = 32
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	for trial := 0; trial < 200; trial++ {
		capturedBy, succeeded := runMatch(m, n, active, src)
		checkOneToOne(t, "algorithm1", n, capturedBy, succeeded)
		_ = capturedBy
		_ = succeeded
	}
}

// TestLemma21SuccessProbability is the statistical reproduction of the
// paper's Lemma 2.1: an ant executing recruit(1,·) in a round with
// c(0,r) >= 2 succeeds with probability at least 1/16, regardless of what the
// other ants do. We measure the empirical frequency for a designated ant
// across home-nest sizes and activity mixes; the observed value is far above
// the 1/16 bound, so asserting >= 1/16 with 10^4 trials has negligible
// false-failure probability.
func TestLemma21SuccessProbability(t *testing.T) {
	t.Parallel()
	src := rng.New(17)
	m := &AlgorithmOneMatcher{}
	const trials = 10000
	for _, n := range []int{2, 3, 8, 64, 512} {
		for _, activeFraction := range []float64{1.0, 0.5} {
			succ := 0
			for trial := 0; trial < trials; trial++ {
				active := make([]bool, n)
				active[0] = true // the designated Lemma 2.1 ant
				for i := 1; i < n; i++ {
					active[i] = src.Bernoulli(activeFraction)
				}
				_, succeeded := runMatch(m, n, active, src)
				if succeeded[0] {
					succ++
				}
			}
			freq := float64(succ) / trials
			if freq < 1.0/16 {
				t.Errorf("n=%d activeFrac=%.1f: success frequency %.4f < 1/16 (violates Lemma 2.1)",
					n, activeFraction, freq)
			}
		}
	}
}

func TestSimultaneousMatcherCapturesAmongPickers(t *testing.T) {
	t.Parallel()
	src := rng.New(19)
	m := &SimultaneousMatcher{}
	const n = 16
	active := make([]bool, n)
	for i := 0; i < n/2; i++ {
		active[i] = true
	}
	for trial := 0; trial < 100; trial++ {
		capturedBy, succeeded := runMatch(m, n, active, src)
		checkMatchingInvariants(t, "simultaneous", n, active, capturedBy, succeeded)
	}
}

func TestRendezvousNearPerfectMatching(t *testing.T) {
	t.Parallel()
	// With all ants active, rendezvous should match ~n/2 pairs: every other
	// ant in the shuffled order captures its successor.
	src := rng.New(23)
	m := &RendezvousMatcher{}
	const n = 64
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	capturedBy, succeeded := runMatch(m, n, active, src)
	checkOneToOne(t, "rendezvous", n, capturedBy, succeeded)
	pairs := 0
	for _, s := range succeeded {
		if s {
			pairs++
		}
	}
	if pairs != n/2 {
		t.Fatalf("rendezvous with all active matched %d pairs, want %d", pairs, n/2)
	}
}

func TestMatcherNamesUnique(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	for _, m := range Matchers() {
		if m.Name() == "" || seen[m.Name()] {
			t.Fatalf("matcher name %q empty or duplicated", m.Name())
		}
		seen[m.Name()] = true
	}
}

// TestAlgorithmOneSuccessRateStable pins the approximate success probability
// of a recruiter in a fully active pool, which Lemma 2.1 lower-bounds at 1/16
// and which concentrates near a constant for large pools. A drastic change
// here means the matcher's distribution changed, which would invalidate the
// experiments' calibration (`go run ./cmd/hhbench -exp <id>`).
func TestAlgorithmOneSuccessRateStable(t *testing.T) {
	t.Parallel()
	src := rng.New(29)
	m := &AlgorithmOneMatcher{}
	const n, trials = 256, 2000
	active := make([]bool, n)
	for i := range active {
		active[i] = true
	}
	totalSucc := 0
	for trial := 0; trial < trials; trial++ {
		_, succeeded := runMatch(m, n, active, src)
		for _, s := range succeeded {
			if s {
				totalSucc++
			}
		}
	}
	rate := float64(totalSucc) / float64(n*trials)
	// Analytically the per-ant success rate in a fully-active large pool sits
	// in the 0.25–0.45 band; allow generous slack while excluding collapse.
	if rate < 0.2 || rate > 0.5 {
		t.Fatalf("algorithm1 success rate %.4f outside expected band [0.2, 0.5]", rate)
	}
}

// BenchmarkAlgorithmOneMatch1024 times one Match call over n slots with a
// given share of them active, at a small pool and a million-ant one, and
// reports ns per slot. The active share is where keyed draws pay: only the
// active slots are shuffled and drawn for.
func BenchmarkAlgorithmOneMatch1024(b *testing.B) {
	for _, n := range []int{1024, 1 << 20} {
		for _, share := range []float64{0.02, 0.5, 1} {
			b.Run(fmt.Sprintf("n=%d/active=%g%%", n, share*100), func(b *testing.B) {
				src := rng.New(1)
				m := &AlgorithmOneMatcher{}
				active := make([]bool, n)
				for i := range active {
					active[i] = src.Bernoulli(share)
				}
				capturedBy := make([]int32, n)
				succeeded := make([]bool, n)
				m.Match(n, active, src, capturedBy, succeeded) // warm-up sizes scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Match(n, active, src, capturedBy, succeeded)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/slot")
			})
		}
	}
}

// TestMatchCarrySaturation pins the carry-capacity ceiling: a lone transporter
// with capacity c never captures more than c slots in one round, and with
// everything else passive the cap is actually reached (draws are only lost to
// blocking, which across seeds cannot suppress every full-capacity round).
func TestMatchCarrySaturation(t *testing.T) {
	t.Parallel()
	const (
		n     = 32
		carry = 3
	)
	m := &AlgorithmOneMatcher{}
	active := make([]bool, n)
	active[0] = true
	carries := make([]int, n)
	for i := range carries {
		carries[i] = 1
	}
	carries[0] = carry
	capturedBy := make([]int32, n)
	succeeded := make([]bool, n)
	maxCaptures := 0
	for seed := uint64(1); seed <= 200; seed++ {
		m.MatchCarry(n, active, carries, rng.New(seed), capturedBy, succeeded)
		captures := 0
		for slot, cb := range capturedBy {
			if cb != 0 && cb != -1 {
				t.Fatalf("seed %d: slot %d captured by %d; only slot 0 recruits", seed, slot, cb)
			}
			if cb == 0 && slot != 0 {
				captures++
			}
			if cb == 0 && slot == 0 {
				// Self-pair: the transporter consumed itself and must carry
				// nobody else this round (§3's lone-ant semantics).
				if captures > 0 {
					t.Fatalf("seed %d: self-paired transporter also carried others", seed)
				}
				captures = -n // exclude this round from the saturation check
			}
		}
		if captures > carry {
			t.Fatalf("seed %d: transporter carried %d > capacity %d", seed, captures, carry)
		}
		if captures > maxCaptures {
			maxCaptures = captures
		}
	}
	if maxCaptures != carry {
		t.Fatalf("capacity never saturated: max captures %d, want %d", maxCaptures, carry)
	}
}

// TestMatchCarryAllOnesMatchesMatch pins the draw-sequence identity the batch
// engine relies on: MatchCarry with an all-ones carry vector consumes the
// stream exactly like Match, so a transporting program's canvass-only rounds
// pair identically to the scalar engine's Match dispatch.
func TestMatchCarryAllOnesMatchesMatch(t *testing.T) {
	t.Parallel()
	const n = 64
	ones := make([]int, n)
	for i := range ones {
		ones[i] = 1
	}
	for seed := uint64(1); seed <= 25; seed++ {
		src := rng.New(seed)
		active := make([]bool, n)
		for i := range active {
			active[i] = src.Bernoulli(0.5)
		}
		plain := &AlgorithmOneMatcher{}
		viaMatch, succMatch := runMatch(plain, n, active, rng.New(seed+1000))
		withCarry := &AlgorithmOneMatcher{}
		srcCarry := rng.New(seed + 1000)
		viaCarry := make([]int32, n)
		succCarry := make([]bool, n)
		withCarry.MatchCarry(n, active, ones, srcCarry, viaCarry, succCarry)
		for slot := 0; slot < n; slot++ {
			if viaMatch[slot] != viaCarry[slot] || succMatch[slot] != succCarry[slot] {
				t.Fatalf("seed %d slot %d: Match (%d,%v) != MatchCarry ones (%d,%v)",
					seed, slot, viaMatch[slot], succMatch[slot], viaCarry[slot], succCarry[slot])
			}
		}
		// The draw identity must extend to the stream position: both calls
		// leave the source in the same state.
		ref := rng.New(seed + 1000)
		refCaptured := make([]int32, n)
		refSucceeded := make([]bool, n)
		plain2 := &AlgorithmOneMatcher{}
		plain2.Match(n, active, ref, refCaptured, refSucceeded)
		if srcCarry.State() != ref.State() {
			t.Fatalf("seed %d: MatchCarry ones left the stream at a different position than Match", seed)
		}
	}
}

// TestMatchersAllocationFree is the scratch-reuse regression test: after a
// warm-up call has sized the internal buffers, Match must not allocate — the
// simultaneous model once allocated its reservoir counters on every call,
// which dominated ablation sweeps.
func TestMatchersAllocationFree(t *testing.T) {
	const n = 256
	for _, m := range Matchers() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			src := rng.New(3)
			active := make([]bool, n)
			for i := range active {
				active[i] = i%3 != 0
			}
			capturedBy := make([]int32, n)
			succeeded := make([]bool, n)
			m.Match(n, active, src, capturedBy, succeeded) // warm-up sizes scratch
			allocs := testing.AllocsPerRun(100, func() {
				m.Match(n, active, src, capturedBy, succeeded)
			})
			if allocs != 0 {
				t.Errorf("%s: %v allocs per Match, want 0", m.Name(), allocs)
			}
			if cm, ok := m.(CarryMatcher); ok {
				carries := make([]int, n)
				for i := range carries {
					carries[i] = 1 + i%3
				}
				allocs := testing.AllocsPerRun(100, func() {
					cm.MatchCarry(n, active, carries, src, capturedBy, succeeded)
				})
				if allocs != 0 {
					t.Errorf("%s: %v allocs per MatchCarry, want 0", m.Name(), allocs)
				}
			}
		})
	}
}

// TestCaptureListMatchesCaptureTable pins the CaptureLister contract on every
// stock matcher: the returned slots are exactly those with capturedBy >= 0,
// without duplicates, across activity patterns including all-passive (empty
// list) and fully active rounds.
func TestCaptureListMatchesCaptureTable(t *testing.T) {
	t.Parallel()
	const n = 64
	for _, m := range Matchers() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			lister, ok := m.(CaptureLister)
			if !ok {
				t.Fatalf("%s implements no CaptureLister", m.Name())
			}
			src := rng.New(17)
			for trial := 0; trial < 200; trial++ {
				active := make([]bool, n)
				for i := range active {
					active[i] = src.Bernoulli(float64(trial%5) / 4)
				}
				capturedBy := make([]int32, n)
				succeeded := make([]bool, n)
				m.Match(n, active, src, capturedBy, succeeded)
				listed := map[int32]int{}
				for _, t32 := range lister.Captures() {
					listed[t32]++
				}
				for slot := 0; slot < n; slot++ {
					want := 0
					if capturedBy[slot] >= 0 {
						want = 1
					}
					if listed[int32(slot)] != want {
						t.Fatalf("trial %d slot %d: capture list count %d, capturedBy %d",
							trial, slot, listed[int32(slot)], capturedBy[slot])
					}
				}
			}
		})
	}
}
