package sim

import (
	"github.com/gmrl/househunt/internal/rng"
)

// Matcher computes one round's recruitment assignment over the recruiting
// set R (the ants that called recruit this round). Implementations work in
// slot space: slot t ∈ [0, n) is the t-th recruiting ant in engine order; the
// engine maps slots back to ant indices.
//
// Match fills two tables:
//
//   - capturedBy[t] = slot of the recruiter that captured slot t, or -1 if t
//     was not captured. A self-pair is capturedBy[t] == t.
//   - succeeded[s]  = true iff slot s actively recruited and captured a slot.
//
// active[t] reports whether slot t called recruit(1, ·). Implementations may
// use scratch space owned by the matcher; the engine never calls Match
// concurrently on one matcher instance. A matcher that also implements
// CaptureLister must accept nil tables and then skip filling them: the batch
// engine reads a round's pairs from the capture lists alone. The scalar
// engine always passes both tables.
type Matcher interface {
	Match(n int, active []bool, src *rng.Source, capturedBy []int32, succeeded []bool)
	// Name identifies the matcher in benchmarks and ablation tables.
	Name() string
}

// CarryMatcher is implemented by matchers that support the §6 transport
// extension: an active slot t may capture up to carry[t] ants in one round.
// carry may be nil, meaning capacity 1 everywhere, in which case the process
// must be identical to Match (including its randomness). The tables follow
// Match's contract, nil included.
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
// slots were captured, and by whom. Captures returns the slots captured by
// the most recent Match/MatchCarry call (self-pairs included), in capture
// order, and Captors their captors: Captors()[i] captured Captures()[i],
// which is capturedBy[Captures()[i]] when the call filled the table. Both
// slices are matcher-owned scratch, valid until the next call, and both are
// filled whether or not the call passed tables. Captures are sparse — a
// consumer folding only captured slots touches a fraction of the colony
// instead of scanning the whole capture table — and distinct, so a consumer
// may split the lists into chunks folded concurrently. The batch engine
// reads captures only through this interface, calling Match/MatchCarry with
// nil tables; NewBatch rejects matchers without it.
type CaptureLister interface {
	Matcher
	Captures() []int32
	Captors() []int32
}

// Per-slot scratch bits of AlgorithmOneMatcher's packed status column. One
// byte per slot holds every flag the scan reads and writes: the candidate's
// captured-test and the target's blocking check are the matching hot path,
// and each resolves with a single byte load here. The tables, when the call
// passes them, are written from the capture lists after the scan.
// slotActive must stay at bit 0: the candidate-collection pass advances its
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
// The random inputs are keyed (see MatchCarry): only the active slots are
// shuffled, and each candidate's targets are a pure function of the round's
// key and the candidate's slot. Both are the paper's process in distribution
// — the relative order of the active slots under a uniform permutation of R
// is a uniform permutation of S, and a candidate's target is a fresh uniform
// draw whether or not the scan ever reads it — which the exact oracle in
// matcher_oracle_test.go checks outcome by outcome for small pools.
//
// The zero value is ready to use; the matcher grows internal scratch buffers
// as needed and is not safe for concurrent use.
type AlgorithmOneMatcher struct {
	cand     []int32 // the round's candidates (active slots), shuffled
	target   []int32 // target[i] is cand[i]'s first target
	status   []uint8
	captures []int32 // captured slots, in capture order
	captors  []int32 // captors[i] captured captures[i]

	// The order-free passes as shard phases (see pair), bound on the first
	// pooled call, and their inputs for the current call: the slot,
	// candidate and shard counts, the active column and the round key.
	// segN[sh] is the number of candidates shard sh collected.
	fnCollect, fnTargets func(shard int)
	segN                 []int
	phN, phW, phShards   int
	phActive             []bool
	phKey                uint64
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

// Captors implements CaptureLister.
//
//hh:hotpath
func (m *AlgorithmOneMatcher) Captors() []int32 { return m.captors }

// Reserve pre-sizes the scratch for pools of up to n slots.
//
//hh:coldpath grows only to a new maximum pool size; steady-state calls are no-ops
func (m *AlgorithmOneMatcher) Reserve(n int) {
	if cap(m.cand) < n {
		m.cand = make([]int32, n)
		m.target = make([]int32, n)
		m.status = make([]uint8, n)
		m.captures = make([]int32, 0, n)
		m.captors = make([]int32, 0, n)
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
// the process — including its one draw from src — is exactly Algorithm 1.
//
// Every call draws exactly one word from src, the round key, and nothing
// else, so the caller's stream advances by one word whatever the round
// holds. From the key:
//
//   - the active slots, collected in slot order, are Fisher–Yates-shuffled
//     (rng.Source.Shuffle32) on a local stream seeded by the key, so the
//     shuffle costs one draw per candidate instead of one per slot;
//   - candidate a's d-th target is rng.KeyedUint64n(key, a, d, n), drawn
//     whether or not the scan reaches a free: no draw's value depends on
//     another draw's outcome, so the targets are computed in one pass ahead
//     of the scan.
//
// The greedy scan then applies the acceptance rule unchanged. Captures and
// Captors hold the round's pairs; the tables, if the call passed them, are
// filled from those lists after the scan.
//
// MatchCarry runs every pass on the calling goroutine. The batch lanes call
// pair instead, which fans the order-free passes out on the lane's shard
// pool with the same result. The shuffle stays one sequential pass: a
// bucketed permutation (Sanders, "Random permutations on distributed,
// external and hierarchical memory", IPL 1998) could split it across cores,
// but for 2^20 slots on a 2-core Xeon it measured 17.0–24.8 ns/slot on one
// shard and 10.6–13.3 on two, against 8.1–12.5 for a plain Fisher–Yates
// pass (ROADMAP.md item 6).
//
//hh:hotpath
//hh:draws one Uint64 from src per call (the round key); the shuffle draws from a key-seeded local stream and the targets are keyed draws, consuming no stream
func (m *AlgorithmOneMatcher) MatchCarry(n int, active []bool, carry []int, src *rng.Source, capturedBy []int32, succeeded []bool) {
	m.pair(nil, n, active, carry, src)
	fillTables(n, m.captures, m.captors, capturedBy, succeeded)
}

// pair is MatchCarry without the tables, with Algorithm 1's two order-free
// passes run as phases of pool, inline when pool is nil:
//
//   - candidate collection: each shard compacts the active slots of its own
//     slot range to the front of that range of cand, and one sequential
//     copy then closes the gaps between the shards' segments, which leaves
//     the candidates in slot order exactly as one pass would;
//   - first-target draws: each shard draws the keyed targets of its span of
//     the shuffled candidates.
//
// The shuffle and the greedy scan stay on the calling goroutine, so the
// pairs, the capture lists and the one word taken from src are the same at
// every shard count.
//
//hh:hotpath
//hh:draws one Uint64 from src per call (the round key); the shuffle draws from a key-seeded local stream and the targets are keyed draws, consuming no stream
func (m *AlgorithmOneMatcher) pair(pool *shardPool, n int, active []bool, carry []int, src *rng.Source) {
	key := src.Uint64()
	m.captures = m.captures[:0]
	m.captors = m.captors[:0]
	if n == 0 {
		return
	}
	m.Reserve(n)
	cand := m.cand[:n]
	shards := pool.shards()
	var w int
	if shards == 1 {
		w = m.collect(active, 0, n)
	} else {
		if m.fnCollect == nil || len(m.segN) < shards {
			m.bindShards(shards)
		}
		m.phN, m.phShards, m.phActive = n, shards, active
		pool.run(m.fnCollect)
		w = m.segN[0]
		for sh := 1; sh < shards; sh++ {
			lo, _ := shardSpan(n, sh, shards)
			w += copy(cand[w:], cand[lo:lo+m.segN[sh]])
		}
	}
	//hh:draws only the local key-seeded shuffle stream, which nothing else reads; src gave its one word above
	if w > 0 {
		cand = cand[:w]
		var shuffle rng.Source
		shuffle.Reseed(key)
		shuffle.Shuffle32(cand)
		target := m.target[:w]
		if shards == 1 {
			rng.KeyedDraws32(target, key, cand, 0, uint64(n))
		} else {
			m.phW, m.phKey = w, key
			pool.run(m.fnTargets)
		}
		if carry == nil {
			m.scan(cand, target, m.status[:n])
		} else {
			m.scanCarry(cand, target, carry, key, m.status[:n])
		}
	}
}

// bindShards binds pair's shard phases and sizes segN for a pool of shards.
//
//hh:coldpath runs on a matcher's first pooled call, and again only for a larger pool
func (m *AlgorithmOneMatcher) bindShards(shards int) {
	if m.fnCollect == nil {
		m.fnCollect = m.collectShard
		m.fnTargets = m.targetShard
	}
	if len(m.segN) < shards {
		m.segN = make([]int, shards)
	}
}

// collect writes the status bytes of slots [lo, hi) and compacts that range's
// active slots, in slot order, to the front of cand[lo:hi], returning how
// many there are. The activity pattern is data-dependent noise, so the pass
// is branch-free: every slot is written and the cursor advances by the
// active bit.
//
//hh:hotpath
func (m *AlgorithmOneMatcher) collect(active []bool, lo, hi int) int {
	status := m.status[lo:hi]
	cand := m.cand[lo:hi]
	w := 0
	for j, a := range active[lo:hi] {
		s := uint8(0)
		if a {
			s = slotActive
		}
		status[j] = s
		cand[w] = int32(lo + j)
		w += int(s)
	}
	return w
}

// collectShard is pair's collection phase on one shard's slot range.
//
//hh:hotpath
func (m *AlgorithmOneMatcher) collectShard(sh int) {
	lo, hi := shardSpan(m.phN, sh, m.phShards)
	m.segN[sh] = m.collect(m.phActive, lo, hi)
}

// targetShard is pair's target phase: the first targets of one shard's span
// of the shuffled candidates.
//
//hh:hotpath
func (m *AlgorithmOneMatcher) targetShard(sh int) {
	lo, hi := shardSpan(m.phW, sh, m.phShards)
	rng.KeyedDraws32(m.target[lo:hi], m.phKey, m.cand[lo:hi], 0, uint64(m.phN))
}

// scan is MatchCarry's capacity-1 greedy pass: each candidate, in shuffled
// order, captures its target unless it was itself captured earlier or the
// target already recruited or was captured. Whether a candidate is blocked
// is data-dependent noise, so the pass is branch-free: every candidate
// writes a capture entry and the cursor advances only on success.
//
//hh:hotpath
func (m *AlgorithmOneMatcher) scan(cand, target []int32, status []uint8) {
	caps := m.captures[:len(cand)] // within Reserve(n) capacity: one capture per candidate at most
	captors := m.captors[:len(cand)]
	nc := 0
	for i, a32 := range cand {
		t32 := target[i]
		sa, st := status[a32], status[t32]
		blocked := uint32(sa&slotCaptured) | uint32(st&(slotCaptured|slotSucceeded))
		ok := uint8((blocked - 1) >> 31) // 1 iff blocked == 0
		// Write the target before re-reading the candidate: a self-pair
		// (t32 == a32) must end up with both flags.
		status[t32] = st | ok*slotCaptured
		status[a32] |= ok * slotSucceeded
		caps[nc] = t32
		captors[nc] = a32
		nc += int(ok)
	}
	m.captures = caps[:nc]
	m.captors = captors[:nc]
}

// scanCarry is the greedy pass for the transport extension: candidate a
// draws up to carry[a] targets, the first precomputed in target and draw d
// keyed as rng.KeyedUint64n(key, a, d, n). Like scan it resolves each draw
// without branching on its outcome; the loop ends after the candidate's
// last draw, or once it was found captured or paired with itself. scan stays
// separate because running capacity-1 rounds through this loop made the
// matcher about a quarter slower at 2^20 slots.
//
//hh:hotpath
func (m *AlgorithmOneMatcher) scanCarry(cand, target []int32, carry []int, key uint64, status []uint8) {
	// Every draw writes the entry at nc, so nc must stay below n while a
	// draw remains. It does: a recruiter that captured another is never
	// captured itself, so all n slots end up captured only once every slot
	// has paired with itself, at its own turn, which ends the scan.
	caps := m.captures[:cap(m.captures)]
	captors := m.captors[:cap(m.captors)]
	nc := 0
	un := uint64(len(status))
	for i, a32 := range cand {
		// done is 1 once the candidate draws no more: captured before its
		// turn (bit 1 of its status), or paired with itself.
		done := uint32(status[a32]&slotCaptured) >> 1
		t32 := target[i]
		for d := 1; ; d++ {
			st := status[t32]
			blocked := done | uint32(st&(slotCaptured|slotSucceeded))
			ok := uint8((blocked - 1) >> 31) // 1 iff blocked == 0
			status[t32] = st | ok*slotCaptured
			status[a32] |= ok * slotSucceeded
			caps[nc] = t32
			captors[nc] = a32
			nc += int(ok)
			// A self-pair consumes the recruiter itself: it cannot keep
			// carrying others, matching the lone-ant semantics of §3. A
			// blocked self-draw is merely lost.
			if t32 == a32 {
				done |= uint32(ok)
			}
			if d >= carry[a32] || done != 0 {
				break
			}
			t32 = int32(rng.KeyedUint64n(key, uint64(a32), uint64(d), un))
		}
	}
	m.captures = caps[:nc]
	m.captors = captors[:nc]
}

// SimultaneousMatcher is an ablation model ("other natural models" per the
// paper's §2 remark): every active ant draws a target simultaneously; each
// ant drawn by one or more recruiters is captured by one of them chosen
// uniformly at random. Unlike Algorithm 1, a recruiter can simultaneously be
// captured and succeed, and no permutation priority exists.
//
// Its draws stay sequential on the caller's stream rather than keyed like
// Algorithm 1's: it is an ablation (E16's) that no default configuration
// and no benchmark workload runs, so keying it would change its E16 rows
// without speeding up anything measured.
type SimultaneousMatcher struct {
	picks    []int32
	seen     []int32
	pos      []int32 // pos[t] is slot t's index in captures, once seen[t] > 0
	captures []int32
	captors  []int32
}

var (
	_ Matcher       = (*SimultaneousMatcher)(nil)
	_ CaptureLister = (*SimultaneousMatcher)(nil)
)

// Captures implements CaptureLister.
//
//hh:hotpath
func (m *SimultaneousMatcher) Captures() []int32 { return m.captures }

// Captors implements CaptureLister. A captor is final only after the whole
// reservoir pass, so the list is complete only when Match returns.
//
//hh:hotpath
func (m *SimultaneousMatcher) Captors() []int32 { return m.captors }

// Reserve pre-sizes the scratch for pools of up to n slots.
//
//hh:coldpath grows only to a new maximum pool size; steady-state calls are no-ops
func (m *SimultaneousMatcher) Reserve(n int) {
	if cap(m.picks) < n {
		m.picks = make([]int32, n)
		m.seen = make([]int32, n)
		m.pos = make([]int32, n)
		m.captures = make([]int32, 0, n)
		m.captors = make([]int32, 0, n)
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
	m.captors = m.captors[:0]
	if n == 0 {
		return
	}
	m.Reserve(n)
	active = active[:n]
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
		fillTables(n, nil, nil, capturedBy, succeeded) // nobody picked: no reservoir draws, no captures
		return
	}
	// Reservoir-sample one capturer per target among its pickers, so each
	// contender wins with equal probability. seen[target] counts the pickers
	// observed so far; the buffer is matcher-owned scratch reused across
	// rounds (allocating it per call once dominated the matching cost).
	seen := m.seen[:n]
	for t := range seen {
		seen[t] = 0
	}
	pos := m.pos[:n]
	caps := m.captures[:n] // within Reserve(n) capacity: at most n captures
	captors := m.captors[:n]
	nc := 0
	for s, target := range picks {
		if target < 0 {
			continue
		}
		seen[target]++
		//hh:draws reservoir tie-break: one word per contender beyond the first; both engines share this exact code
		if seen[target] == 1 {
			pos[target] = int32(nc)
			caps[nc] = target
			captors[nc] = int32(s)
			nc++
		} else if src.Uint64n(uint64(seen[target])) == 0 {
			captors[pos[target]] = int32(s)
		}
	}
	m.captures = caps[:nc]
	m.captors = captors[:nc]
	fillTables(n, m.captures, m.captors, capturedBy, succeeded)
}

// RendezvousMatcher is a second ablation model: the recruiting set is
// shuffled and scanned once; each still-unmatched active ant captures the
// nearest following unmatched ant in the shuffled order (wrapping around).
// This "speed dating" process has no random target draw at all, only the
// permutation, and produces near-perfect matchings — an upper bound on how
// efficient pairing could plausibly be.
//
// It keeps its full-colony PermInto32 on the caller's stream for the same
// reason SimultaneousMatcher keeps its sequential draws: it is one of E16's
// ablations, off every default and benchmark path.
type RendezvousMatcher struct {
	perm     []int32
	blocked  []bool // blocked[t] = captured or succeeded, the scan's skip test
	captures []int32
	captors  []int32
}

var (
	_ Matcher       = (*RendezvousMatcher)(nil)
	_ CaptureLister = (*RendezvousMatcher)(nil)
)

// Captures implements CaptureLister.
//
//hh:hotpath
func (m *RendezvousMatcher) Captures() []int32 { return m.captures }

// Captors implements CaptureLister.
//
//hh:hotpath
func (m *RendezvousMatcher) Captors() []int32 { return m.captors }

// Reserve pre-sizes the scratch for pools of up to n slots.
//
//hh:coldpath grows only to a new maximum pool size; steady-state calls are no-ops
func (m *RendezvousMatcher) Reserve(n int) {
	if cap(m.perm) < n {
		m.perm = make([]int32, n)
		m.blocked = make([]bool, n)
		m.captures = make([]int32, 0, n)
		m.captors = make([]int32, 0, n)
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
	m.captors = m.captors[:0]
	if n == 0 {
		return
	}
	m.Reserve(n)
	active = active[:n]
	perm := m.perm[:n]
	src.PermInto32(perm)
	blocked := m.blocked[:n]
	for t := range blocked {
		blocked[t] = false
	}
	// With every slot passive the scan captures nothing and draws nothing.
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
			m.captures = append(m.captures, int32(b)) //hh:allocok within Reserve(n) capacity; at most n captures
			m.captors = append(m.captors, int32(a))   //hh:allocok within Reserve(n) capacity; one captor per capture
			blocked[b] = true
			blocked[a] = true
			break
		}
	}
	fillTables(n, m.captures, m.captors, capturedBy, succeeded)
}

// fillTables writes the tables of an n-slot Match call from its capture and
// captor lists, skipping a nil table. Every stock matcher resolves its pairs
// into the lists first and fills the tables here, once, after its scan.
//
//hh:hotpath
func fillTables(n int, captures, captors, capturedBy []int32, succeeded []bool) {
	if capturedBy != nil {
		capturedBy = capturedBy[:n]
		for t := range capturedBy {
			capturedBy[t] = -1
		}
		for i, t := range captures {
			capturedBy[t] = captors[i]
		}
	}
	if succeeded != nil {
		clear(succeeded[:n])
		for _, s := range captors {
			succeeded[s] = true
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
