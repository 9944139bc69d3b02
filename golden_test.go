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
// The table was last regenerated when Algorithm 1's draws became keyed: the
// matcher now takes one word per round from the matching stream as a key,
// shuffles only the active slots from a key-seeded stream, and derives each
// candidate's targets from the key, where it used to shuffle all slots and
// draw targets from the matching stream itself. The process is the same in
// distribution (the exact oracle in internal/sim and
// TestKeyedMatcherMatchesSequentialReference check it), but every execution
// with a recruit round takes a different path. Optimal at n=128, seed 42
// takes a different path too but happens to end at the same round with the
// same winner.
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
		{AlgorithmSimple, 128, 4, 2, 42, 46, 2},
		{AlgorithmSimple, 256, 8, 4, 7, 50, 1},
		{AlgorithmOptimal, 128, 4, 2, 42, 49, 2},
		{AlgorithmOptimal, 256, 8, 4, 7, 65, 2},
		{AlgorithmAdaptive, 256, 8, 8, 7, 74, 6},
		{AlgorithmQualityAware, 128, 4, 4, 42, 38, 3},
		{AlgorithmQuorum, 256, 4, 2, 7, 17, 2},
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
