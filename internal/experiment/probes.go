package experiment

import (
	"fmt"

	"github.com/gmrl/househunt/internal/algo"
	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/trace"
	"github.com/gmrl/househunt/internal/workload"
)

// RecruitSuccessPoint measures Lemma 2.1 empirically at one home-nest size:
// the frequency with which a designated active recruiter succeeds.
type RecruitSuccessPoint struct {
	PoolSize       int
	ActiveFraction float64
	Trials         int
	SuccessRate    float64
	// WilsonLo is the lower end of the 95% Wilson interval; the lemma's
	// bound P >= 1/16 must sit below it.
	WilsonLo float64
}

// MeasureRecruitSuccess runs the recruitment matching in isolation: pools of
// poolSize ants, a designated always-active recruiter, the rest active with
// probability activeFraction. It returns the designated ant's empirical
// success probability (Lemma 2.1 claims >= 1/16 whenever poolSize >= 2).
func MeasureRecruitSuccess(m sim.Matcher, poolSize int, activeFraction float64, trials int, seed uint64) (RecruitSuccessPoint, error) {
	if poolSize < 1 {
		return RecruitSuccessPoint{}, fmt.Errorf("experiment: pool size %d < 1", poolSize)
	}
	if trials <= 0 {
		return RecruitSuccessPoint{}, fmt.Errorf("experiment: trials must be positive")
	}
	src := rng.New(seed)
	active := make([]bool, poolSize)
	capturedBy := make([]int32, poolSize)
	succeeded := make([]bool, poolSize)
	successes := 0
	for trial := 0; trial < trials; trial++ {
		active[0] = true
		for i := 1; i < poolSize; i++ {
			active[i] = src.Bernoulli(activeFraction)
		}
		m.Match(poolSize, active, src, capturedBy, succeeded)
		if succeeded[0] {
			successes++
		}
	}
	pt := RecruitSuccessPoint{
		PoolSize:       poolSize,
		ActiveFraction: activeFraction,
		Trials:         trials,
		SuccessRate:    float64(successes) / float64(trials),
	}
	pt.WilsonLo, _ = wilson(successes, trials)
	return pt, nil
}

// wilson is re-exported thinly from stats to keep probe call sites compact.
func wilson(successes, trials int) (float64, float64) {
	lo, hi := statsWilson(successes, trials)
	return lo, hi
}

// PersistencePoint measures Lemma 3.1: the per-round probability that an
// ignorant ant remains ignorant during the rumor-spreading process.
type PersistencePoint struct {
	N           int
	Rounds      int
	MinStayRate float64 // minimum over rounds of P[ignorant stays ignorant]
	MeanStay    float64
}

// MeasureIgnorantPersistence runs the §3 spreading process and, for each
// round with at least minSample ignorant ants, measures the fraction that
// remain ignorant. Lemma 3.1 lower-bounds every such fraction's expectation
// by 1/4.
func MeasureIgnorantPersistence(n int, seed uint64, minSample int) (PersistencePoint, error) {
	if n < 4 {
		return PersistencePoint{}, fmt.Errorf("experiment: n=%d too small", n)
	}
	env, err := workload.SingleGood(2)
	if err != nil {
		return PersistencePoint{}, err
	}
	src := rng.New(seed)
	agents, err := (algo.Spreader{Seeds: 1}).Build(n, env, src.Split(2))
	if err != nil {
		return PersistencePoint{}, err
	}
	engine, err := sim.New(env, agents, sim.WithSeed(seed))
	if err != nil {
		return PersistencePoint{}, err
	}
	informed := func() int {
		c := 0
		for _, a := range agents {
			if sp, ok := a.(*algo.SpreaderAnt); ok && sp.Informed() {
				c++
			}
		}
		return c
	}
	pt := PersistencePoint{N: n, MinStayRate: 1}
	var totalStay float64
	samples := 0
	maxRounds := 64 * (bitsLen(n) + 1)
	for r := 0; r < maxRounds; r++ {
		before := n - informed()
		if before == 0 {
			break
		}
		if err := engine.Step(); err != nil {
			return PersistencePoint{}, err
		}
		after := n - informed()
		if before >= minSample {
			stay := float64(after) / float64(before)
			totalStay += stay
			samples++
			if stay < pt.MinStayRate {
				pt.MinStayRate = stay
			}
		}
		pt.Rounds = engine.Round()
	}
	if samples > 0 {
		pt.MeanStay = totalStay / float64(samples)
	}
	return pt, nil
}

// bitsLen returns ⌈log2(n)⌉ for n >= 1.
func bitsLen(n int) int {
	b := 0
	for v := n; v > 1; v >>= 1 {
		b++
	}
	return b
}

// DeltaPoint measures Lemmas 4.1/4.2: the distribution of the per-round
// population delta Y of a competing nest during a pure recruitment round.
type DeltaPoint struct {
	NestSizes []int
	Trials    int
	// PNeg, PZero, PPos are the empirical probabilities of Y<0, Y=0, Y>0 for
	// nest 0 (the first of NestSizes).
	PNeg, PZero, PPos float64
}

// MeasureNestDelta simulates R3 rounds of Algorithm 2 in isolation: all ants
// of all competing nests are at home actively recruiting for their own nest.
// For each trial it computes nest 0's net population change (cross-nest
// captures only — intra-nest captures cancel) and tallies the sign.
// Lemma 4.1 claims P[Y<0] = P[Y>0]; Lemma 4.2 claims P[Y<0] >= 1/66 when
// nest 0 is not alone.
func MeasureNestDelta(m sim.Matcher, nestSizes []int, trials int, seed uint64) (DeltaPoint, error) {
	if len(nestSizes) == 0 {
		return DeltaPoint{}, fmt.Errorf("experiment: no nests")
	}
	total := 0
	for i, s := range nestSizes {
		if s <= 0 {
			return DeltaPoint{}, fmt.Errorf("experiment: nest %d size %d <= 0", i, s)
		}
		total += s
	}
	if trials <= 0 {
		return DeltaPoint{}, fmt.Errorf("experiment: trials must be positive")
	}
	src := rng.New(seed)
	nestOf := make([]int, total)
	idx := 0
	for nest, s := range nestSizes {
		for j := 0; j < s; j++ {
			nestOf[idx] = nest
			idx++
		}
	}
	active := make([]bool, total)
	for i := range active {
		active[i] = true
	}
	capturedBy := make([]int32, total)
	succeeded := make([]bool, total)

	pt := DeltaPoint{NestSizes: append([]int(nil), nestSizes...), Trials: trials}
	neg, zero, pos := 0, 0, 0
	for trial := 0; trial < trials; trial++ {
		m.Match(total, active, src, capturedBy, succeeded)
		delta := 0
		for t, cb := range capturedBy {
			if cb < 0 || int(cb) == t {
				continue
			}
			from, to := nestOf[t], nestOf[cb]
			if from == to {
				continue
			}
			if to == 0 {
				delta++
			}
			if from == 0 {
				delta--
			}
		}
		switch {
		case delta < 0:
			neg++
		case delta == 0:
			zero++
		default:
			pos++
		}
	}
	pt.PNeg = float64(neg) / float64(trials)
	pt.PZero = float64(zero) / float64(trials)
	pt.PPos = float64(pos) / float64(trials)
	return pt, nil
}

// GapPoint measures Lemma 5.4: the expected relative population gap between
// two nests after the initial search round.
type GapPoint struct {
	N, K     int
	Trials   int
	MeanGap  float64 // E[ε(i,j,1)], with ε capped at n to keep moments finite
	TieRate  float64 // P[ε = 0]
	BoundMin float64 // the lemma's bound 1/(3(n-1))
}

// MeasureInitialGap simulates round-1 search splits and computes the relative
// gap between nests 1 and 2.
func MeasureInitialGap(n, k, trials int, seed uint64) (GapPoint, error) {
	if n < 2 || k < 2 {
		return GapPoint{}, fmt.Errorf("experiment: need n >= 2 and k >= 2, got n=%d k=%d", n, k)
	}
	if trials <= 0 {
		return GapPoint{}, fmt.Errorf("experiment: trials must be positive")
	}
	src := rng.New(seed)
	counts := make([]int, k)
	pt := GapPoint{N: n, K: k, Trials: trials, BoundMin: 1.0 / (3 * float64(n-1))}
	var sum float64
	ties := 0
	for trial := 0; trial < trials; trial++ {
		for i := range counts {
			counts[i] = 0
		}
		for a := 0; a < n; a++ {
			counts[src.Intn(k)]++
		}
		hi, lo := counts[0], counts[1]
		if lo > hi {
			hi, lo = lo, hi
		}
		var eps float64
		switch {
		case hi == lo:
			ties++
			eps = 0
		case lo == 0:
			eps = float64(n) // cap: the paper's ratio is infinite here
		default:
			eps = float64(hi)/float64(lo) - 1
		}
		sum += eps
	}
	pt.MeanGap = sum / float64(trials)
	pt.TieRate = float64(ties) / float64(trials)
	return pt, nil
}

// ExtinctionPoint measures Lemmas 5.8/5.9 on organic Algorithm 3 runs: once a
// nest's committed population falls below n/(dk) it should die (reach zero)
// within O(k log n) rounds and never win.
type ExtinctionPoint struct {
	N, K int
	Runs int
	// Crossings counts nests observed crossing below the threshold.
	Crossings int
	// Extinct counts crossings that reached zero committed ants.
	Extinct int
	// Recovered counts crossings that went on to win the run (the lemma says
	// this should essentially never happen).
	Recovered int
	// MeanLinger is the mean number of rounds from crossing to extinction.
	MeanLinger float64
	// BudgetRounds is the lemma's O(k log n) budget used for comparison.
	BudgetRounds int
}

// MeasureExtinction traces Algorithm 3 runs and post-processes the commitment
// series. d is the lemma's constant (the paper requires d >= 64; smaller d
// raises the threshold and produces more crossings to grade).
func MeasureExtinction(n, k, runs int, d float64, seed uint64) (ExtinctionPoint, error) {
	if n <= 0 || k <= 0 || runs <= 0 || d <= 0 {
		return ExtinctionPoint{}, fmt.Errorf("experiment: invalid extinction parameters")
	}
	env, err := workload.AllGood(k)
	if err != nil {
		return ExtinctionPoint{}, err
	}
	threshold := float64(n) / (d * float64(k))
	pt := ExtinctionPoint{N: n, K: k, Runs: runs, BudgetRounds: 64 * k * (bitsLen(n) + 1)}
	var lingerSum float64
	for run := 0; run < runs; run++ {
		tr := trace.New(k)
		res, err := runColony(algo.Simple{}, core.RunConfig{
			N: n, Env: env, Trace: tr,
			Seed: workload.SeedFor("extinction", n, k, run+1),
		})
		if err != nil {
			return ExtinctionPoint{}, err
		}
		for nestID := 1; nestID <= k; nestID++ {
			series, err := tr.CommitmentSeries(nestID)
			if err != nil {
				return ExtinctionPoint{}, err
			}
			cross := -1
			for r, v := range series {
				if v > 0 && v < threshold {
					cross = r
					break
				}
			}
			if cross < 0 {
				continue
			}
			pt.Crossings++
			if res.Solved && int(res.Winner) == nestID {
				pt.Recovered++
				continue
			}
			died := -1
			for r := cross; r < len(series); r++ {
				if series[r] == 0 {
					died = r
					break
				}
			}
			if died >= 0 {
				pt.Extinct++
				lingerSum += float64(died - cross)
			}
		}
	}
	if pt.Extinct > 0 {
		pt.MeanLinger = lingerSum / float64(pt.Extinct)
	}
	return pt, nil
}

// DecayPoint measures the geometric decay of the number of competing nests
// during Algorithm 2 — the mechanism behind Theorem 4.3. The paper's Lemma
// 4.2 implies E[k_{r+4}] <= (65/66)·k_r; empirically the decay is far faster.
type DecayPoint struct {
	N, K int
	Runs int
	// MeanCompeting[p] is the mean number of competing nests after phase p
	// (phase 0 is the state right after the search round).
	MeanCompeting []float64
	// MeanDecay is the average per-phase ratio k_{p+1}/k_p while k_p > 1.
	MeanDecay float64
	// PhasesToOne is the mean number of phases until one competitor remains.
	PhasesToOne float64
}

// MeasureCompetingDecay runs Algorithm 2 colonies and tracks how many nests
// still have at least one active (competing) ant at each 4-round phase
// boundary.
func MeasureCompetingDecay(n, k, runs int, seed uint64) (DecayPoint, error) {
	if n <= 0 || k <= 0 || runs <= 0 {
		return DecayPoint{}, fmt.Errorf("experiment: invalid decay parameters")
	}
	env, err := workload.AllGood(k)
	if err != nil {
		return DecayPoint{}, err
	}
	pt := DecayPoint{N: n, K: k, Runs: runs}
	var decaySum float64
	decaySamples := 0
	var phasesSum float64
	maxPhases := 16 * (bitsLen(n) + 1)
	sums := make([]float64, 0, 64)
	for run := 0; run < runs; run++ {
		root := rng.New(seed + uint64(run)*7919)
		agents, err := (algo.Optimal{}).Build(n, env, root.Split(2))
		if err != nil {
			return DecayPoint{}, err
		}
		engine, err := sim.New(env, agents, sim.WithSeed(seed+uint64(run)*104729))
		if err != nil {
			return DecayPoint{}, err
		}
		competing := func() int {
			nests := make(map[sim.NestID]bool, k)
			for _, a := range agents {
				ant, ok := a.(*algo.OptimalAnt)
				if !ok {
					continue
				}
				if ant.State() == "active" {
					if nest, committed := ant.Committed(); committed {
						nests[nest] = true
					}
				}
			}
			return len(nests)
		}
		// Round 1 is the global search round; phases end at rounds 5, 9, ...
		if err := engine.Step(); err != nil {
			return DecayPoint{}, err
		}
		prev := competing()
		record := func(phase int, v float64) {
			for len(sums) <= phase {
				sums = append(sums, 0)
			}
			sums[phase] += v
		}
		record(0, float64(prev))
		settled := false
		for phase := 1; phase <= maxPhases; phase++ {
			for i := 0; i < 4; i++ {
				if err := engine.Step(); err != nil {
					return DecayPoint{}, err
				}
			}
			cur := competing()
			record(phase, float64(cur))
			if prev > 1 && cur >= 1 {
				decaySum += float64(cur) / float64(prev)
				decaySamples++
			}
			if !settled && cur <= 1 {
				phasesSum += float64(phase)
				settled = true
			}
			prev = cur
			if settled {
				break
			}
		}
		if !settled {
			phasesSum += float64(maxPhases)
		}
	}
	pt.MeanCompeting = make([]float64, len(sums))
	for i, s := range sums {
		pt.MeanCompeting[i] = s / float64(runs)
	}
	if decaySamples > 0 {
		pt.MeanDecay = decaySum / float64(decaySamples)
	}
	pt.PhasesToOne = phasesSum / float64(runs)
	return pt, nil
}
