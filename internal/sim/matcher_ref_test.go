package sim

import "github.com/gmrl/househunt/internal/rng"

// SequentialAlgorithmOneMatcher is Algorithm 1 with the stream discipline
// AlgorithmOneMatcher had before its draws were keyed: it permutes all n
// slots with PermInto32 on the caller's stream and draws each still-free
// candidate's targets from that same stream inside the scan, so every draw's
// position depends on the outcomes before it. It is kept, test-only, as the
// reference the keyed matcher is checked against: both must pass the exact
// oracle, and both must give the same colony-level distributions
// (TestKeyedMatcherMatchesSequentialReference). It is exported so the
// external sim_test package can hand it to a Batch.
type SequentialAlgorithmOneMatcher struct {
	perm     []int32
	cand     []int32
	status   []uint8
	captures []int32
}

// Captures implements CaptureLister.
func (m *SequentialAlgorithmOneMatcher) Captures() []int32 { return m.captures }

// Reserve pre-sizes the scratch for pools of up to n slots.
func (m *SequentialAlgorithmOneMatcher) Reserve(n int) {
	if cap(m.perm) < n {
		m.perm = make([]int32, n)
		m.cand = make([]int32, n)
		m.status = make([]uint8, n)
		m.captures = make([]int32, 0, n)
	}
}

// Name implements Matcher.
func (m *SequentialAlgorithmOneMatcher) Name() string { return "algorithm1-sequential" }

// Match implements Matcher.
func (m *SequentialAlgorithmOneMatcher) Match(n int, active []bool, src *rng.Source, capturedBy []int32, succeeded []bool) {
	m.MatchCarry(n, active, nil, src, capturedBy, succeeded)
}

// MatchCarry implements CarryMatcher: PermInto32(n) on src, then one
// Uint64n(n) on src per draw of each candidate still free at its turn.
func (m *SequentialAlgorithmOneMatcher) MatchCarry(n int, active []bool, carry []int, src *rng.Source, capturedBy []int32, succeeded []bool) {
	m.captures = m.captures[:0]
	if n == 0 {
		return
	}
	m.Reserve(n)
	status := m.status[:n]
	for t := 0; t < n; t++ {
		capturedBy[t] = -1
		succeeded[t] = false
		status[t] = 0
		if active[t] {
			status[t] = slotActive
		}
	}
	perm := src.PermInto32(m.perm[:n])
	cand := m.cand[:0]
	for _, a := range perm {
		if status[a]&slotActive != 0 {
			cand = append(cand, a)
		}
	}
	un := uint64(n)
	for _, a32 := range cand {
		a := int(a32)
		if status[a]&slotCaptured != 0 {
			continue
		}
		draws := 1
		if carry != nil && carry[a] > 1 {
			draws = carry[a]
		}
		for d := 0; d < draws; d++ {
			target := int(src.Uint64n(un))
			if status[target]&(slotCaptured|slotSucceeded) != 0 {
				continue
			}
			status[target] |= slotCaptured
			capturedBy[target] = int32(a)
			m.captures = append(m.captures, int32(target))
			status[a] |= slotSucceeded
			succeeded[a] = true
			if target == a {
				break
			}
		}
	}
}
