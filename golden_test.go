package househunt

import (
	"fmt"
	"testing"
)

// TestGoldenExecutions pins exact convergence rounds and winners for fixed
// seeds across every algorithm. These are regression canaries: the engine,
// the matcher, the RNG streams and every algorithm are deterministic, so any
// diff here means an unintended semantic change somewhere in the stack (or an
// intended one that must be called out in the changelog, with the affected
// experiment tables regenerated by `go run ./cmd/hhbench -exp <id>`).
//
// If a change legitimately alters executions (e.g. an extra RNG draw), update
// the table below in the same commit and say why.
//
// The table was last regenerated when every per-ant draw and search
// destination became a keyed draw: each recruit coin, perception-hook seed,
// docility coin and ApproxN estimate is now a pure function of the agent
// key, the ant, its logical round and a fixed draw index, and each search
// destination one of the environment key, the ant and the round, where they
// used to come from per-ant streams and one sequential environment stream;
// the Source behind every remaining stream became SplitMix64 in the same
// change. The process is the same in distribution
// (TestKeyedDrawsMatchParentDistribution in internal/core compares 300
// colonies per cell against a table recorded before the change), but every
// execution takes a different path.
func TestGoldenExecutions(t *testing.T) {
	t.Parallel()
	type golden struct {
		algo   Algorithm
		n      int
		k      int
		good   int
		seed   uint64
		rounds int
		winner int
	}
	cases := []golden{
		{AlgorithmSimple, 128, 4, 2, 42, 26, 2},
		{AlgorithmSimple, 256, 8, 4, 7, 54, 4},
		{AlgorithmOptimal, 128, 4, 2, 42, 53, 2},
		{AlgorithmOptimal, 256, 8, 4, 7, 69, 3},
		{AlgorithmAdaptive, 256, 8, 8, 7, 68, 4},
		{AlgorithmQualityAware, 128, 4, 4, 42, 42, 2},
		{AlgorithmQuorum, 256, 4, 2, 7, 19, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s/n%d/k%d/seed%d", tc.algo, tc.n, tc.k, tc.seed), func(t *testing.T) {
			t.Parallel()
			res, err := Run(
				WithColonySize(tc.n),
				WithBinaryNests(tc.k, tc.good),
				WithAlgorithm(tc.algo),
				WithSeed(tc.seed),
			)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Solved {
				t.Fatalf("golden run unsolved: %+v", res)
			}
			if res.Rounds != tc.rounds || res.Winner != tc.winner {
				t.Fatalf("golden drift: got rounds=%d winner=%d, pinned rounds=%d winner=%d",
					res.Rounds, res.Winner, tc.rounds, tc.winner)
			}
		})
	}
}
