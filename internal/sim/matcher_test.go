package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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
	// The reservoir must pick each contender with equal probability, and the
	// captor list must hold the final pick, not the first picker. With two
	// active slots, a round with one capture is one where both picked the
	// same target, and slot 1 must then win about half the time.
	const trials = 4000
	pair := []bool{true, true}
	shared, wins := 0, 0
	for trial := 0; trial < trials; trial++ {
		m.Match(2, pair, src, nil, nil)
		if len(m.Captures()) == 1 {
			shared++
			wins += int(m.Captors()[0])
		}
	}
	// Slot 1's wins are Binomial(shared, 1/2): allow six standard deviations.
	if dev := math.Abs(float64(wins) - float64(shared)/2); dev > 3*math.Sqrt(float64(shared)) {
		t.Fatalf("slot 1 won %d of %d shared targets, want about half", wins, shared)
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
// given share of them active, and reports ns per slot. The active share is
// where keyed draws pay: only the active slots are shuffled and drawn for.
// A 1024-slot pool runs with tables, as the scalar engine calls it; a
// million-slot one runs with and without them, the latter as the batch
// engine calls it.
func BenchmarkAlgorithmOneMatch1024(b *testing.B) {
	type cell struct {
		n      int
		tables bool
	}
	for _, c := range []cell{{1024, true}, {1 << 20, true}, {1 << 20, false}} {
		for _, share := range []float64{0.02, 0.5, 1} {
			name := fmt.Sprintf("n=%d/active=%g%%/tables=%v", c.n, share*100, c.tables)
			b.Run(name, func(b *testing.B) {
				n := c.n
				src := rng.New(1)
				m := &AlgorithmOneMatcher{}
				active := make([]bool, n)
				for i := range active {
					active[i] = src.Bernoulli(share)
				}
				var capturedBy []int32
				var succeeded []bool
				if c.tables {
					capturedBy = make([]int32, n)
					succeeded = make([]bool, n)
				}
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

// TestAlgorithmOnePairMatchesMatch pins the batch lanes' entry to Algorithm
// 1, pair, to the public calls: on real pools of 2 and 3 shards and with a
// nil pool, pair must leave the same capture and captor lists as Match (with
// and without tables) and MatchCarry (nil, all-ones and mixed carries up to
// 3) on the same Source seed, the same tables once filled from them, and the
// Source at the same next word. The sizes include spans that are empty or
// uneven and pools with more shards than slots.
func TestAlgorithmOnePairMatchesMatch(t *testing.T) {
	base := runtime.NumGoroutine()
	pools := []*shardPool{nil, newShardPool(2), newShardPool(3)}
	defer func() {
		for _, p := range pools[1:] {
			p.close()
		}
		waitGoroutines(t, base)
	}()
	paired := make([]*AlgorithmOneMatcher, len(pools))
	for i := range paired {
		paired[i] = &AlgorithmOneMatcher{}
	}
	gen := rng.New(29)
	for _, n := range []int{1, 2, 7, 1024, 1<<16 + 3} {
		ones := make([]int, n)
		mixed := make([]int, n)
		for i := range ones {
			ones[i] = 1
			mixed[i] = 1 + int(gen.Uint64n(3))
		}
		for _, share := range []float64{0, 0.02, 0.5, 1} {
			active := make([]bool, n)
			for i := range active {
				active[i] = gen.Bernoulli(share)
			}
			for _, c := range []struct {
				name   string
				carry  []int
				tables bool
			}{
				{"Match", nil, false},
				{"Match+tables", nil, true},
				{"MatchCarry(nil)", nil, true},
				{"MatchCarry(ones)", ones, true},
				{"MatchCarry(mixed)", mixed, true},
			} {
				seed := gen.Uint64()
				ref := &AlgorithmOneMatcher{}
				refSrc := rng.New(seed)
				var refBy, gotBy []int32
				var refOK, gotOK []bool
				if c.tables {
					refBy, gotBy = make([]int32, n), make([]int32, n)
					refOK, gotOK = make([]bool, n), make([]bool, n)
				}
				if c.name == "Match" || c.name == "Match+tables" {
					ref.Match(n, active, refSrc, refBy, refOK)
				} else {
					ref.MatchCarry(n, active, c.carry, refSrc, refBy, refOK)
				}
				refNext := refSrc.Uint64()
				for i, p := range pools {
					m := paired[i]
					src := rng.New(seed)
					m.pair(p, n, active, c.carry, src)
					where := fmt.Sprintf("n=%d active=%g%% %s, %d shards", n, share*100, c.name, p.shards())
					if !slices.Equal(m.Captures(), ref.Captures()) || !slices.Equal(m.Captors(), ref.Captors()) {
						t.Fatalf("%s: pair's capture lists differ from the public call's", where)
					}
					if c.tables {
						fillTables(n, m.Captures(), m.Captors(), gotBy, gotOK)
						if !slices.Equal(gotBy, refBy) || !slices.Equal(gotOK, refOK) {
							t.Fatalf("%s: tables filled from pair's lists differ", where)
						}
					}
					if src.Uint64() != refNext {
						t.Fatalf("%s: pair left the Source at a different word than the public call", where)
					}
				}
			}
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
			// The batch engine passes no tables; the scalar engine passes both.
			for _, tables := range []bool{true, false} {
				cb, succ := capturedBy, succeeded
				if !tables {
					cb, succ = nil, nil
				}
				allocs := testing.AllocsPerRun(100, func() {
					m.Match(n, active, src, cb, succ)
				})
				if allocs != 0 {
					t.Errorf("%s tables=%v: %v allocs per Match, want 0", m.Name(), tables, allocs)
				}
				if cm, ok := m.(CarryMatcher); ok {
					carries := make([]int, n)
					for i := range carries {
						carries[i] = 1 + i%3
					}
					allocs := testing.AllocsPerRun(100, func() {
						cm.MatchCarry(n, active, carries, src, cb, succ)
					})
					if allocs != 0 {
						t.Errorf("%s tables=%v: %v allocs per MatchCarry, want 0", m.Name(), tables, allocs)
					}
				}
			}
		})
	}
}

// TestCaptureListMatchesCaptureTable pins the CaptureLister contract on every
// stock matcher: the returned slots are exactly those with capturedBy >= 0,
// without duplicates, each listed captor is the table's, and a call without
// tables lists the same pairs from the same stream state — across activity
// patterns including all-passive (empty list) and fully active rounds. The
// captor check matters most for SimultaneousMatcher, whose captor is final
// only after its reservoir pass.
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
				start := *src
				m.Match(n, active, src, capturedBy, succeeded)
				captures := slices.Clone(lister.Captures())
				captors := lister.Captors()
				if len(captors) != len(captures) {
					t.Fatalf("trial %d: %d captors for %d captures", trial, len(captors), len(captures))
				}
				listed := map[int32]int{}
				for i, t32 := range captures {
					listed[t32]++
					if captors[i] != capturedBy[t32] {
						t.Fatalf("trial %d: Captors()[%d] = %d, capturedBy[%d] = %d",
							trial, i, captors[i], t32, capturedBy[t32])
					}
				}
				captors = slices.Clone(captors)
				bare := start
				m.Match(n, active, &bare, nil, nil)
				if !slices.Equal(lister.Captures(), captures) || !slices.Equal(lister.Captors(), captors) {
					t.Fatalf("trial %d: a call without tables listed other pairs", trial)
				}
				if bare.State() != src.State() {
					t.Fatalf("trial %d: a call without tables left the stream elsewhere", trial)
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
