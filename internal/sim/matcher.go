package sim

import (
	"github.com/gmrl/househunt/internal/rng"
)

// Matcher computes one round's recruitment assignment over the recruiting
// set R (the ants that called recruit this round). Implementations work in
// slot space: slot t ∈ [0, n) is the t-th recruiting ant in engine order; the
// engine maps slots back to ant indices.
//
// Match must fill:
//
//   - capturedBy[t] = slot of the recruiter that captured slot t, or -1 if t
//     was not captured. A self-pair is capturedBy[t] == t.
//   - succeeded[s]  = true iff slot s actively recruited and captured a slot.
//
// active[t] reports whether slot t called recruit(1, ·). Implementations may
// use scratch space owned by the matcher; the engine never calls Match
// concurrently on one matcher instance.
type Matcher interface {
	Match(n int, active []bool, src *rng.Source, capturedBy []int32, succeeded []bool)
	// Name identifies the matcher in benchmarks and ablation tables.
	Name() string
}

// CarryMatcher is implemented by matchers that support the §6 transport
// extension: an active slot t may capture up to carry[t] ants in one round.
// carry may be nil, meaning capacity 1 everywhere, in which case the process
// must be identical to Match (including its randomness).
type CarryMatcher interface {
	Matcher
	MatchCarry(n int, active []bool, carry []int, src *rng.Source, capturedBy []int32, succeeded []bool)
}

// sizedMatcher is implemented by the stock matchers: Reserve pre-sizes the
// internal scratch for pools of up to n slots, so a freshly built engine or
// batch lane never grows matcher buffers mid-run (the recruiting set widens
// over an execution, and lazy growth would re-allocate at each new maximum).
type sizedMatcher interface {
	Reserve(n int)
}

// CaptureLister is implemented by matchers that additionally record which
// slots were captured. Captures returns the slots captured by the most
// recent Match/MatchCarry call (self-pairs included), in capture order; the
// slice is matcher-owned scratch, valid until the next call. Captures are
// sparse — a consumer folding only captured slots touches a fraction of the
// colony instead of scanning the whole capture table — and distinct, so a
// consumer may split the list into chunks folded concurrently. The batch
// engine reads captures only through this interface; NewBatch rejects
// matchers without it.
type CaptureLister interface {
	Matcher
	Captures() []int32
}

// Per-slot scratch bits of AlgorithmOneMatcher's packed status column. One
// byte per slot keeps the three flags the inner loops test on the same cache
// line, where the separate bool/int columns they summarize span ten times the
// footprint: the permutation scan and the target-blocking check are the
// matching hot path, and both resolve with a single byte load here.
// slotActive must stay at bit 0: the candidate-compaction pass advances its
// write cursor by `status & slotActive` to stay branch-free.
const (
	slotActive    uint8 = 1 << iota // slot called recruit(1, ·)
	slotCaptured                    // capturedBy[slot] >= 0
	slotSucceeded                   // succeeded[slot]
)

// AlgorithmOneMatcher is the paper's Algorithm 1, reproduced exactly:
//
//	M ← ∅  (a set of ordered pairs)
//	P ← uniform random permutation of R
//	for i = 1..|P|:
//	    if a_P(i) ∈ S (active) and (·, a_P(i)) ∉ M:
//	        a' ← uniform random ant from R        // may be a_P(i) itself
//	        if (a', ·) ∉ M and (·, a') ∉ M:
//	            M ← M ∪ {(a_P(i), a')}
//
// An ant captured earlier in the permutation loses its chance to recruit; a
// drawn ant that already recruited or was already captured blocks the pair
// (no retry). Self-pairs are possible and count as a success whose captured
// ant learns its own nest, matching the paper's remark that a lone ant "is
// forced to recruit itself".
//
// The zero value is ready to use; the matcher grows internal scratch buffers
// as needed and is not safe for concurrent use.
type AlgorithmOneMatcher struct {
	perm     []int32
	cand     []int32
	status   []uint8
	captures []int32
}

var (
	_ Matcher       = (*AlgorithmOneMatcher)(nil)
	_ CarryMatcher  = (*AlgorithmOneMatcher)(nil)
	_ CaptureLister = (*AlgorithmOneMatcher)(nil)
)

// Captures implements CaptureLister.
//
//hh:hotpath
func (m *AlgorithmOneMatcher) Captures() []int32 { return m.captures }

// Reserve pre-sizes the scratch for pools of up to n slots.
//
//hh:coldpath grows only to a new maximum pool size; steady-state calls are no-ops
func (m *AlgorithmOneMatcher) Reserve(n int) {
	if cap(m.perm) < n {
		m.perm = make([]int32, n)
		m.cand = make([]int32, n)
		m.status = make([]uint8, n)
		m.captures = make([]int32, 0, n)
	}
}

// Name implements Matcher.
func (m *AlgorithmOneMatcher) Name() string { return "algorithm1" }

// Match implements Matcher with the paper's sequential pairing process.
//
//hh:hotpath
//hh:draws delegates to MatchCarry with nil carry: identical draw sequence
func (m *AlgorithmOneMatcher) Match(n int, active []bool, src *rng.Source, capturedBy []int32, succeeded []bool) {
	m.MatchCarry(n, active, nil, src, capturedBy, succeeded)
}

// MatchCarry implements CarryMatcher: the paper's process generalized so slot
// a draws up to carry[a] targets (each draw independent and lost if blocked,
// exactly like the single draw of Algorithm 1). With carry nil or all-ones
// the process — including its random draw sequence — is exactly Algorithm 1.
//
//hh:hotpath
//hh:draws PermInto32(n) then one Uint64n(n) per unblocked candidate draw; all-passive rounds PermAdvance(n) only
func (m *AlgorithmOneMatcher) MatchCarry(n int, active []bool, carry []int, src *rng.Source, capturedBy []int32, succeeded []bool) {
	m.captures = m.captures[:0]
	if n == 0 {
		return
	}
	capturedBy = capturedBy[:n]
	succeeded = succeeded[:n]
	active = active[:n]
	for t := range capturedBy {
		capturedBy[t] = -1
	}
	for t := range succeeded {
		succeeded[t] = false
	}
	m.Reserve(n)
	anyActive := false
	for _, a := range active {
		if a {
			anyActive = true
			break
		}
	}
	if !anyActive {
		// Only active slots draw targets, so an all-passive round consumes
		// nothing beyond the permutation and assigns nobody: advancing the
		// stream by the permutation's draws — values unread — is
		// draw-for-draw identical. (Algorithm 2 colonies recruit
		// all-passively in three of their four block rounds until finals
		// appear, so this is a common case on that path.)
		src.PermAdvance(n)
		return
	}
	perm := m.perm[:n]
	status := m.status[:n]
	for t, a := range active {
		s := uint8(0)
		if a {
			s = slotActive
		}
		status[t] = s
	}
	src.PermInto32(perm)

	// Compact the active slots out of the permutation before scanning. The
	// activity pattern is data-dependent noise, so testing it inside the
	// scan mispredicts constantly; the compaction pass is branch-free (the
	// cursor advances by the active bit) and the scan then visits only
	// candidates, whose captured-test is rarely taken. Activity is fixed
	// for the round, so compacting up front is order-identical to testing
	// lazily.
	cand := m.cand[:n]
	w := 0
	for _, a32 := range perm {
		cand[w] = a32
		w += int(status[a32] & slotActive)
	}

	// The target draw is Intn(n) spelled as the one-level Uint64n call: the
	// two-level Intn → Uint64n tree costs a second dynamic call per draw on
	// the hottest loop of the engine, and n is already validated positive.
	un := uint64(n)
	if carry == nil {
		// Capacity-1 fast path: the capacity lookup is loop-invariant.
		for _, a32 := range cand[:w] {
			a := int(a32)
			if status[a]&slotCaptured != 0 {
				continue
			}
			target := int(src.Uint64n(un))
			if status[target]&(slotCaptured|slotSucceeded) != 0 {
				continue
			}
			status[target] |= slotCaptured
			capturedBy[target] = int32(a)
			m.captures = append(m.captures, int32(target)) //hh:allocok within Reserve(n) capacity; at most n captures
			status[a] |= slotSucceeded
			succeeded[a] = true
		}
		return
	}
	for _, a32 := range cand[:w] {
		a := int(a32)
		if status[a]&slotCaptured != 0 {
			continue
		}
		draws := 1
		if carry[a] > 1 {
			draws = carry[a]
		}
		for d := 0; d < draws; d++ {
			target := int(src.Uint64n(un))
			if status[target]&(slotCaptured|slotSucceeded) != 0 {
				continue
			}
			status[target] |= slotCaptured
			capturedBy[target] = int32(a)
			m.captures = append(m.captures, int32(target)) //hh:allocok within Reserve(n) capacity; at most n captures
			status[a] |= slotSucceeded
			succeeded[a] = true
			if target == a {
				// A self-pair consumes the recruiter itself; it cannot keep
				// carrying others, matching the lone-ant semantics of §3.
				break
			}
		}
	}
}

// SimultaneousMatcher is an ablation model ("other natural models" per the
// paper's §2 remark): every active ant draws a target simultaneously; each
// ant drawn by one or more recruiters is captured by one of them chosen
// uniformly at random. Unlike Algorithm 1, a recruiter can simultaneously be
// captured and succeed, and no permutation priority exists.
type SimultaneousMatcher struct {
	picks    []int32
	seen     []int32
	captures []int32
}

var (
	_ Matcher       = (*SimultaneousMatcher)(nil)
	_ CaptureLister = (*SimultaneousMatcher)(nil)
)

// Captures implements CaptureLister.
//
//hh:hotpath
func (m *SimultaneousMatcher) Captures() []int32 { return m.captures }

// Reserve pre-sizes the scratch for pools of up to n slots.
//
//hh:coldpath grows only to a new maximum pool size; steady-state calls are no-ops
func (m *SimultaneousMatcher) Reserve(n int) {
	if cap(m.picks) < n {
		m.picks = make([]int32, n)
		m.seen = make([]int32, n)
		m.captures = make([]int32, 0, n)
	}
}

// Name implements Matcher.
func (m *SimultaneousMatcher) Name() string { return "simultaneous" }

// Match implements Matcher.
//
//hh:hotpath
//hh:draws one Uint64n(n) per active slot in slot order, then one reservoir word per extra contender in scan order
func (m *SimultaneousMatcher) Match(n int, active []bool, src *rng.Source, capturedBy []int32, succeeded []bool) {
	m.captures = m.captures[:0]
	if n == 0 {
		return
	}
	capturedBy = capturedBy[:n]
	succeeded = succeeded[:n]
	active = active[:n]
	for t := range capturedBy {
		capturedBy[t] = -1
	}
	for t := range succeeded {
		succeeded[t] = false
	}
	m.Reserve(n)
	picks := m.picks[:n]
	un := uint64(n)
	anyActive := false
	for t := 0; t < n; t++ {
		picks[t] = -1
		if active[t] {
			picks[t] = int32(src.Uint64n(un)) // Intn(n), one call level
			anyActive = true
		}
	}
	if !anyActive {
		return // nobody picked: no reservoir draws, no captures
	}
	// Reservoir-sample one capturer per target among its pickers, so each
	// contender wins with equal probability. seen[target] counts the pickers
	// observed so far; the buffer is matcher-owned scratch reused across
	// rounds (allocating it per call once dominated the matching cost).
	seen := m.seen[:n]
	for t := range seen {
		seen[t] = 0
	}
	for s := 0; s < n; s++ {
		target := picks[s]
		if target < 0 {
			continue
		}
		seen[target]++
		//hh:draws reservoir tie-break: one word per contender beyond the first; both engines share this exact code
		if seen[target] == 1 {
			m.captures = append(m.captures, target) //hh:allocok within Reserve(n) capacity; at most n captures
			capturedBy[target] = int32(s)
		} else if src.Uint64n(uint64(seen[target])) == 0 {
			capturedBy[target] = int32(s)
		}
	}
	for t := 0; t < n; t++ {
		if capturedBy[t] >= 0 {
			succeeded[capturedBy[t]] = true
		}
	}
}

// RendezvousMatcher is a second ablation model: the recruiting set is
// shuffled and scanned once; each still-unmatched active ant captures the
// nearest following unmatched ant in the shuffled order (wrapping around).
// This "speed dating" process has no random target draw at all, only the
// permutation, and produces near-perfect matchings — an upper bound on how
// efficient pairing could plausibly be.
type RendezvousMatcher struct {
	perm     []int32
	blocked  []bool // blocked[t] = captured or succeeded, the scan's skip test
	captures []int32
}

var (
	_ Matcher       = (*RendezvousMatcher)(nil)
	_ CaptureLister = (*RendezvousMatcher)(nil)
)

// Captures implements CaptureLister.
//
//hh:hotpath
func (m *RendezvousMatcher) Captures() []int32 { return m.captures }

// Reserve pre-sizes the scratch for pools of up to n slots.
//
//hh:coldpath grows only to a new maximum pool size; steady-state calls are no-ops
func (m *RendezvousMatcher) Reserve(n int) {
	if cap(m.perm) < n {
		m.perm = make([]int32, n)
		m.blocked = make([]bool, n)
		m.captures = make([]int32, 0, n)
	}
}

// Name implements Matcher.
func (m *RendezvousMatcher) Name() string { return "rendezvous" }

// Match implements Matcher.
//
//hh:hotpath
//hh:draws PermInto32(n) only; the rendezvous scan is draw-free
func (m *RendezvousMatcher) Match(n int, active []bool, src *rng.Source, capturedBy []int32, succeeded []bool) {
	m.captures = m.captures[:0]
	if n == 0 {
		return
	}
	capturedBy = capturedBy[:n]
	succeeded = succeeded[:n]
	active = active[:n]
	for t := range capturedBy {
		capturedBy[t] = -1
	}
	for t := range succeeded {
		succeeded[t] = false
	}
	m.Reserve(n)
	perm := m.perm[:n]
	src.PermInto32(perm)
	anyActive := false
	for t := 0; t < n; t++ {
		if active[t] {
			anyActive = true
			break
		}
	}
	if !anyActive {
		return // the scan draws nothing, so skipping it changes nothing
	}
	blocked := m.blocked[:n]
	for t := range blocked {
		blocked[t] = false
	}

	for i := 0; i < n; i++ {
		a := int(perm[i])
		if !active[a] || blocked[a] {
			continue
		}
		for j := 1; j < n; j++ {
			b := int(perm[(i+j)%n])
			if blocked[b] {
				continue
			}
			capturedBy[b] = int32(a)
			m.captures = append(m.captures, int32(b)) //hh:allocok within Reserve(n) capacity; at most n captures
			blocked[b] = true
			succeeded[a] = true
			blocked[a] = true
			break
		}
	}
}

// Matchers returns one instance of every matcher model, the paper's first,
// for ablation sweeps.
func Matchers() []Matcher {
	return []Matcher{
		&AlgorithmOneMatcher{},
		&SimultaneousMatcher{},
		&RendezvousMatcher{},
	}
}
