package core_test

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/gmrl/househunt/internal/algo"
	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/faults"
	"github.com/gmrl/househunt/internal/nest"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/stats"
	"github.com/gmrl/househunt/internal/workload"
)

// drawsFalseAlarm is the family-wise false-alarm rate of
// TestKeyedDrawsMatchParentDistribution: two tests per cell, each at
// drawsFalseAlarm / (2 · cells) (Bonferroni).
const drawsFalseAlarm = 1e-3

// TestKeyedDrawsMatchParentDistribution checks that keying every per-ant
// draw and search destination did not change what colonies do. The old
// side is testdata/parent_draws.csv: the rounds and winners of 300 colonies
// per cell at n = 256, recorded with the per-ant streams and sequential
// environment stream that the keyed draws replaced, on seeds
// workload.SeedFor("draws-dist/parent/"+cell, 256, k, r). This side runs
// the same cells on disjoint seeds. The cells are every compiled algorithm
// plus a crash, a sleep and a Byzantine fault cell. A two-sample KS test
// compares the convergence rounds (the budget for unsolved runs) and a
// chi-square homogeneity test the winners (0 for unsolved runs).
func TestKeyedDrawsMatchParentDistribution(t *testing.T) {
	t.Parallel()
	const n = 256
	parent := readParentDraws(t, "testdata/parent_draws.csv")
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
	cells := []struct {
		name string
		algo core.Algorithm
		env  sim.Environment
		wrap core.AgentWrapper
	}{
		{"simple", algo.Simple{}, binary, nil},
		{"optimal", algo.Optimal{}, binary, nil},
		{"adaptive", algo.Adaptive{}, binary, nil},
		{"quality", algo.QualityAware{}, ladder, nil},
		{"approxn", algo.ApproxN{Delta: 0.2}, binary, nil},
		{"noisy", algo.Noisy{Counter: nest.RelativeNoiseCounter{Sigma: 0.1}}, binary, nil},
		{"quorum", algo.Quorum{}, binary, nil},
		{"spreader", algo.Spreader{Seeds: 4}, single, nil},
		{"crash", algo.Simple{}, binary, faults.Spec{CrashFraction: 0.1, CrashWindow: 64, Salt: 6001}},
		{"sleep", algo.Simple{}, single, faults.Spec{SleepFraction: 0.25, SleepWindow: 32, Salt: 6003}},
		{"byzantine", algo.Simple{}, binary, faults.Spec{ByzantineFraction: 0.02, Salt: 6004}},
	}
	level := drawsFalseAlarm / float64(2*len(cells))
	for _, tc := range cells {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			old, ok := parent[tc.name]
			if !ok || len(old.rounds) < 300 {
				t.Fatalf("parent table has %d colonies for cell %s, want 300", len(old.rounds), tc.name)
			}
			seeds := make([]uint64, len(old.rounds))
			for r := range seeds {
				seeds[r] = workload.SeedFor("draws-dist/keyed/"+tc.name, n, tc.env.K(), r+1)
			}
			res, ok, err := core.RunBatch(tc.algo, core.RunConfig{N: n, Env: tc.env, Wrap: tc.wrap}, seeds)
			if err != nil || !ok {
				t.Fatalf("RunBatch: ok=%v err=%v", ok, err)
			}
			rounds := make([]float64, len(res))
			winners := make([]int, tc.env.K()+1)
			for r, cr := range res {
				rounds[r] = float64(cr.Rounds)
				if cr.Solved {
					winners[cr.Winner]++
				} else {
					winners[0]++
				}
			}
			oldWinners := make([]int, tc.env.K()+1)
			for _, w := range old.winners {
				oldWinners[w]++
			}
			d, pRounds := stats.KSTwoSample(rounds, old.rounds)
			chi, dof, pWinners := stats.ChiSquareHomogeneity(winners, oldWinners, 5)
			t.Logf("rounds KS D=%.3f p=%.3g; winners %v vs %v chi2=%.2f dof=%d p=%.3g",
				d, pRounds, winners, oldWinners, chi, dof, pWinners)
			if pRounds < level {
				t.Errorf("convergence rounds differ from the parent's: KS D=%.3f p=%.3g below %.3g", d, pRounds, level)
			}
			if pWinners < level {
				t.Errorf("winners differ from the parent's: %v vs %v, p=%.3g below %.3g", winners, oldWinners, pWinners, level)
			}
		})
	}
}

// parentCell is one cell's column of the parent table.
type parentCell struct {
	rounds  []float64
	winners []int
}

// readParentDraws reads "cell,rounds,winner" lines, skipping # comments.
func readParentDraws(t *testing.T, path string) map[string]*parentCell {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cells := map[string]*parentCell{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		rounds, err1 := strconv.Atoi(fields[1])
		winner, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || winner < 0 {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		c := cells[fields[0]]
		if c == nil {
			c = &parentCell{}
			cells[fields[0]] = c
		}
		c.rounds = append(c.rounds, float64(rounds))
		c.winners = append(c.winners, winner)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cells
}
