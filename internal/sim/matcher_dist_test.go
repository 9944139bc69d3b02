package sim_test

import (
	"fmt"
	"testing"

	"github.com/gmrl/househunt/internal/algo"
	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/stats"
	"github.com/gmrl/househunt/internal/workload"
)

// distFalseAlarm is the pinned family-wise false-alarm rate of
// TestKeyedMatcherMatchesSequentialReference: two tests per algorithm, each
// at distFalseAlarm / (2 · algorithms) (Bonferroni).
const distFalseAlarm = 1e-3

// TestKeyedMatcherMatchesSequentialReference checks that keying Algorithm 1's
// draws did not change what colonies do. For every compiled algorithm, at
// n = 1024 with 1000 replicates per matcher, the batch engine runs once with
// the keyed AlgorithmOneMatcher and once with SequentialAlgorithmOneMatcher
// (the matcher's old sequential-stream form), on disjoint seeds. A two-sample
// KS test compares the convergence rounds (the budget for unsolved runs) and
// a chi-square homogeneity test compares the winners (0 for unsolved runs).
func TestKeyedMatcherMatchesSequentialReference(t *testing.T) {
	t.Parallel()
	const n, reps = 1024, 1000
	binary, err := workload.Binary(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	single, err := workload.Binary(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ladder, err := workload.QualityLadder(4, 0.2, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		algo core.Algorithm
		env  sim.Environment
	}{
		{algo.Simple{}, binary},
		{algo.Optimal{}, binary},
		{algo.Adaptive{}, binary},
		{algo.QualityAware{}, ladder},
		{algo.ApproxN{Delta: 0.2}, binary},
		{algo.Noisy{}, binary},
		{algo.Quorum{}, binary},
		{algo.Spreader{Seeds: 4}, single},
	}
	level := distFalseAlarm / float64(2*len(cases))
	for _, tc := range cases {
		tc := tc
		t.Run(tc.algo.Name(), func(t *testing.T) {
			t.Parallel()
			prog, ok := tc.algo.(core.BatchCompilable).CompileBatch(n, tc.env)
			if !ok {
				t.Fatalf("%s does not compile at n=%d", tc.algo.Name(), n)
			}
			maxRounds := 64 * (tc.env.K() + 1) * 11 // core's default budget at n = 1024
			run := func(tag string, newMatcher func() sim.Matcher) ([]float64, []int) {
				b, err := sim.NewBatch(tc.env, prog, n, sim.WithBatchMatcher(newMatcher), sim.WithBatchWorkers(1))
				if err != nil {
					t.Fatal(err)
				}
				seeds := make([]uint64, reps)
				for r := range seeds {
					seeds[r] = workload.SeedFor("matcher-dist/"+tag+"/"+tc.algo.Name(), n, tc.env.K(), r+1)
				}
				res, err := b.Run(seeds, maxRounds, 1)
				if err != nil {
					t.Fatal(err)
				}
				rounds := make([]float64, reps)
				winners := make([]int, tc.env.K()+1)
				for r, br := range res {
					rounds[r] = float64(br.Rounds)
					winners[br.Winner]++
				}
				return rounds, winners
			}
			keyedRounds, keyedWinners := run("keyed", func() sim.Matcher { return &sim.AlgorithmOneMatcher{} })
			seqRounds, seqWinners := run("sequential", func() sim.Matcher { return &sim.SequentialAlgorithmOneMatcher{} })
			d, pRounds := stats.KSTwoSample(keyedRounds, seqRounds)
			chi, dof, pWinners := stats.ChiSquareHomogeneity(keyedWinners, seqWinners, 5)
			summary := fmt.Sprintf("rounds mean %.2f vs %.2f (KS d=%.4f p=%.3g); winners %v vs %v (chi2=%.2f dof=%d p=%.3g)",
				stats.Mean(keyedRounds), stats.Mean(seqRounds), d, pRounds, keyedWinners, seqWinners, chi, dof, pWinners)
			if pRounds < level || pWinners < level {
				t.Fatalf("keyed and sequential Algorithm 1 give different colonies at level %.2g: %s", level, summary)
			}
			t.Log(summary)
		})
	}
}
