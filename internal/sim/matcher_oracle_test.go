package sim

import (
	"fmt"
	"slices"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/stats"
)

// This file is the exact oracle for Algorithm 1, the recruitment process of
// the model section of arXiv 1505.03799. It shares no code and no stream
// discipline with the matchers: exactAlgorithmOne enumerates the paper's
// process itself, and the matchers are tested against the distribution it
// returns by a chi-square test at fixed seeds.

// oracleMaxSlots bounds the enumeration: n! permutations, each scanned over
// the merged partial pairings it can reach.
const oracleMaxSlots = 5

// oracleTrials is the number of matcher calls sampled per cell.
const oracleTrials = 20000

// oracleFalseAlarm is the pinned family-wise false-alarm rate of
// TestAlgorithmOneExactDistribution: each cell is tested at
// oracleFalseAlarm / cells (Bonferroni), so a correct matcher fails the whole
// test for at most this fraction of seeds.
const oracleFalseAlarm = 1e-4

// pairingKey packs one round's (capturedBy, succeeded) over n <= 5 slots
// into an integer: 3 bits of capturedBy+1 per slot, then one succeeded bit
// per slot.
func pairingKey(capturedBy []int32, succeeded []bool) uint32 {
	var key uint32
	for t, cb := range capturedBy {
		key |= uint32(cb+1) << (3 * t)
	}
	for s, ok := range succeeded {
		if ok {
			key |= 1 << (3*oracleMaxSlots + s)
		}
	}
	return key
}

// pairing is a partial outcome of the scan: the capture table and the
// recruiters that succeeded, for at most oracleMaxSlots slots.
type pairing struct {
	capturedBy [oracleMaxSlots]int32
	succeeded  [oracleMaxSlots]bool
}

// exactAlgorithmOne returns the exact outcome distribution of Algorithm 1
// over n slots with the given activity, each active slot drawing up to carry
// targets (carry 1 is the paper's process; carry > 1 is the §6 transport
// extension, where a self-pair ends the recruiter's draws). It enumerates
// every permutation of all n slots, as the paper states the process, and
// every target value of every draw the scan makes, each with weight 1/n.
// Enumerating the draws the scan makes is enumerating every target tuple:
// entries of a tuple the scan never reads sum out of the weight. Branches
// that reach the same partial pairing at the same scan position are merged,
// which keeps carry 3 at five slots fast.
func exactAlgorithmOne(n int, active []bool, carry int) map[uint32]float64 {
	out := map[uint32]float64{}
	perms := permutations(n)
	var start pairing
	for t := range start.capturedBy {
		start.capturedBy[t] = -1
	}
	for _, perm := range perms {
		frontier := map[pairing]float64{start: 1 / float64(len(perms))}
		for _, a := range perm {
			if !active[a] {
				continue
			}
			for d := 0; d < carry; d++ {
				next := make(map[pairing]float64, len(frontier))
				for st, p := range frontier {
					// M holds (recruiter, captured) pairs: a candidate
					// already captured, by another or by itself, draws no
					// more.
					if st.capturedBy[a] >= 0 {
						next[st] += p
						continue
					}
					for target := 0; target < n; target++ {
						nx := st
						if st.capturedBy[target] < 0 && !st.succeeded[target] {
							nx.capturedBy[target] = int32(a)
							nx.succeeded[a] = true
						} // else blocked: the draw is lost
						next[nx] += p / float64(n)
					}
				}
				frontier = next
			}
		}
		for st, p := range frontier {
			out[pairingKey(st.capturedBy[:n], st.succeeded[:n])] += p
		}
	}
	return out
}

// permutations lists every permutation of [0, n).
func permutations(n int) [][]int {
	var out [][]int
	perm := make([]int, n)
	used := make([]bool, n)
	var rec func(pos int)
	rec = func(pos int) {
		if pos == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for v := 0; v < n; v++ {
			if !used[v] {
				used[v] = true
				perm[pos] = v
				rec(pos + 1)
				used[v] = false
			}
		}
	}
	rec(0)
	return out
}

// oracleCell is one (n, activity mask, carry) configuration of the oracle.
type oracleCell struct {
	n     int
	mask  int
	carry int // 0 = nil carry vector (Match), else every slot carries this many
}

func (c oracleCell) String() string {
	return fmt.Sprintf("n=%d/mask=%0*b/carry=%d", c.n, c.n, c.mask, c.carry)
}

// oracleCells enumerates every activity mask for n <= oracleMaxSlots, with
// carry nil, 2 and 3. Carry 3 is the transport default and the first size
// at which a blocked self-draw (which must not end the recruiter's draws)
// differs from a successful one.
func oracleCells() []oracleCell {
	var cells []oracleCell
	for n := 1; n <= oracleMaxSlots; n++ {
		for mask := 0; mask < 1<<n; mask++ {
			for _, carry := range []int{0, 2, 3} {
				cells = append(cells, oracleCell{n, mask, carry})
			}
		}
	}
	return cells
}

// oracleCellP samples the matcher oracleTrials times on one cell from a
// fixed seed and returns the chi-square p-value against the exact
// distribution (0 if the matcher produced an impossible outcome).
func oracleCellP(m CarryMatcher, c oracleCell, seed uint64) (float64, string) {
	active := make([]bool, c.n)
	for t := range active {
		active[t] = c.mask&(1<<t) != 0
	}
	carry := 1
	var carries []int
	if c.carry > 0 {
		carry = c.carry
		carries = make([]int, c.n)
		for t := range carries {
			carries[t] = c.carry
		}
	}
	exact := exactAlgorithmOne(c.n, active, carry)
	keys := make([]uint32, 0, len(exact))
	for k := range exact {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	index := make(map[uint32]int, len(keys))
	for i, k := range keys {
		index[k] = i
	}
	observed := make([]int, len(keys))
	src := rng.New(seed)
	capturedBy := make([]int32, c.n)
	succeeded := make([]bool, c.n)
	for trial := 0; trial < oracleTrials; trial++ {
		if carries == nil {
			m.Match(c.n, active, src, capturedBy, succeeded)
		} else {
			m.MatchCarry(c.n, active, carries, src, capturedBy, succeeded)
		}
		k := pairingKey(capturedBy, succeeded)
		i, ok := index[k]
		if !ok {
			return 0, fmt.Sprintf("impossible outcome capturedBy=%v succeeded=%v", capturedBy, succeeded)
		}
		observed[i]++
	}
	expected := make([]float64, len(keys))
	for i, k := range keys {
		expected[i] = exact[k] * oracleTrials
	}
	stat, dof, p := stats.ChiSquareGOF(observed, expected, 5)
	return p, fmt.Sprintf("chi2=%.1f dof=%d p=%.3g", stat, dof, p)
}

// runOracle tests m on every cell and returns the cells it fails at the
// Bonferroni-corrected level.
func runOracle(m CarryMatcher, seed uint64) []string {
	cells := oracleCells()
	level := oracleFalseAlarm / float64(len(cells))
	var failed []string
	for i, c := range cells {
		if p, detail := oracleCellP(m, c, seed+uint64(i)); p < level {
			failed = append(failed, c.String()+": "+detail)
		}
	}
	return failed
}

// TestExactAlgorithmOneSanity pins the enumeration against hand-computed
// cases, so the oracle itself is checked before anything is checked
// against it.
func TestExactAlgorithmOneSanity(t *testing.T) {
	t.Parallel()
	// Two active slots: the first in the permutation captures the other
	// w.p. 1/2 (the other then loses its turn), or self-pairs w.p. 1/2, and
	// then the other self-pairs w.p. 1/2 or draws the first and is blocked.
	got := exactAlgorithmOne(2, []bool{true, true}, 1)
	total := 0.0
	for _, p := range got {
		total += p
	}
	if total < 1-1e-12 || total > 1+1e-12 {
		t.Fatalf("probabilities sum to %v", total)
	}
	// Slot 0 captures slot 1 with probability P(0 first)·1/2 = 1/4.
	if p := got[pairingKey([]int32{-1, 0}, []bool{true, false})]; p < 0.25-1e-12 || p > 0.25+1e-12 {
		t.Fatalf("P(0 captures 1) = %v, want 1/4", p)
	}
	// Both self-pair: first draws itself (1/2), second draws itself (1/2).
	if p := got[pairingKey([]int32{0, 1}, []bool{true, true})]; p < 0.25-1e-12 || p > 0.25+1e-12 {
		t.Fatalf("P(both self-pair) = %v, want 1/4", p)
	}
	// One passive slot of two: the active one captures it w.p. 1/2.
	got = exactAlgorithmOne(2, []bool{true, false}, 1)
	if p := got[pairingKey([]int32{-1, 0}, []bool{true, false})]; p < 0.5-1e-12 || p > 0.5+1e-12 {
		t.Fatalf("P(active captures passive) = %v, want 1/2", p)
	}
	// Every distribution sums to one, at every size, mask and carry.
	for _, c := range oracleCells() {
		active := make([]bool, c.n)
		for s := range active {
			active[s] = c.mask&(1<<s) != 0
		}
		sum := 0.0
		for _, p := range exactAlgorithmOne(c.n, active, max(1, c.carry)) {
			sum += p
		}
		if sum < 1-1e-9 || sum > 1+1e-9 {
			t.Fatalf("%v: probabilities sum to %v", c, sum)
		}
	}
}

// TestAlgorithmOneExactDistribution chi-squares the matchers' outcome
// distributions against the exact enumeration for every activity mask of up
// to oracleMaxSlots slots, with carry nil, 2 and 3, at fixed seeds and a
// pinned family-wise false-alarm rate (oracleFalseAlarm) per matcher: the
// keyed AlgorithmOneMatcher and its sequential-stream reference.
func TestAlgorithmOneExactDistribution(t *testing.T) {
	t.Parallel()
	for _, m := range []CarryMatcher{&AlgorithmOneMatcher{}, &SequentialAlgorithmOneMatcher{}} {
		if failed := runOracle(m, 0x0a11ce); len(failed) > 0 {
			t.Errorf("%s departs from the exact Algorithm 1 distribution in %d cells:\n%v", m.Name(), len(failed), failed)
		}
	}
}

// unshuffledMatcher is a deliberately wrong Algorithm 1: it scans the slots
// in slot order instead of a random permutation. The oracle must reject it,
// which shows the test has power against a plausible bug.
type unshuffledMatcher struct{}

func (unshuffledMatcher) Name() string { return "unshuffled" }

func (m unshuffledMatcher) Match(n int, active []bool, src *rng.Source, capturedBy []int32, succeeded []bool) {
	m.MatchCarry(n, active, nil, src, capturedBy, succeeded)
}

func (unshuffledMatcher) MatchCarry(n int, active []bool, carry []int, src *rng.Source, capturedBy []int32, succeeded []bool) {
	for t := 0; t < n; t++ {
		capturedBy[t] = -1
		succeeded[t] = false
	}
	for a := 0; a < n; a++ {
		if !active[a] || capturedBy[a] >= 0 {
			continue
		}
		draws := 1
		if carry != nil {
			draws = carry[a]
		}
		for d := 0; d < draws; d++ {
			target := src.Intn(n)
			if capturedBy[target] >= 0 || succeeded[target] {
				continue
			}
			capturedBy[target] = int32(a)
			succeeded[a] = true
			if target == a {
				break
			}
		}
	}
}

func TestAlgorithmOneOracleRejectsUnshuffledScan(t *testing.T) {
	t.Parallel()
	if failed := runOracle(unshuffledMatcher{}, 0x0a11ce); len(failed) == 0 {
		t.Fatal("the oracle accepted a matcher that scans in slot order")
	}
}
