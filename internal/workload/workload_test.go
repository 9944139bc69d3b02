package workload

import (
	"testing"

	"github.com/gmrl/househunt/internal/sim"
)

func TestBinaryFamilies(t *testing.T) {
	t.Parallel()
	env, err := Binary(8, 3)
	if err != nil || env.K() != 8 || len(env.GoodNests()) != 3 {
		t.Fatalf("Binary(8,3): %v, k=%d good=%v", err, env.K(), env.GoodNests())
	}
	env, err = AllGood(5)
	if err != nil || len(env.GoodNests()) != 5 {
		t.Fatalf("AllGood(5): %v, good=%v", err, env.GoodNests())
	}
	env, err = SingleGood(7)
	if err != nil || len(env.GoodNests()) != 1 {
		t.Fatalf("SingleGood(7): %v, good=%v", err, env.GoodNests())
	}
	if _, err := Binary(0, 0); err == nil {
		t.Fatal("Binary(0,0) accepted")
	}
}

func TestQualityLadder(t *testing.T) {
	t.Parallel()
	env, err := QualityLadder(4, 0.2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if env.Quality(1) != 0.2 || env.Quality(4) != 0.8 {
		t.Fatalf("ladder endpoints: %v .. %v", env.Quality(1), env.Quality(4))
	}
	for i := 2; i <= 4; i++ {
		if env.Quality(sim.NestID(i)) <= env.Quality(sim.NestID(i-1)) {
			t.Fatalf("ladder not increasing at %d", i)
		}
	}
	for i := 1; i < 4; i++ {
		if env.Quality(sim.NestID(i)) >= env.Quality(4) {
			t.Fatalf("nest %d ties or beats nest 4, the top rung", i)
		}
	}
	single, err := QualityLadder(1, 0.5, 0.9)
	if err != nil || single.Quality(1) != 0.9 {
		t.Fatalf("single-rung ladder: %v, q=%v", err, single.Quality(1))
	}
	for _, bad := range [][3]float64{{0, 0.5, 0.9}, {3, 0, 0.9}, {3, 0.9, 0.5}, {3, 0.5, 1.5}} {
		if _, err := QualityLadder(int(bad[0]), bad[1], bad[2]); err == nil {
			t.Fatalf("QualityLadder(%v) accepted", bad)
		}
	}
}

func TestSeedForStability(t *testing.T) {
	t.Parallel()
	a := SeedFor("exp", 1, 2, 3)
	b := SeedFor("exp", 1, 2, 3)
	if a != b {
		t.Fatal("SeedFor not deterministic")
	}
	if SeedFor("exp", 1, 2, 3) == SeedFor("exp", 1, 2, 4) {
		t.Fatal("rep index did not decorrelate")
	}
	if SeedFor("expA", 1, 2, 3) == SeedFor("expB", 1, 2, 3) {
		t.Fatal("tag did not decorrelate")
	}
	if SeedFor("", 0, 0, 0) == 0 {
		t.Fatal("zero seed produced")
	}
	// The cells of an (n, k) grid get distinct, nonzero seeds.
	seen := map[uint64]bool{}
	for _, n := range []int{64, 128} {
		for _, k := range []int{2, 4, 8} {
			s := SeedFor("t", n, k, 0)
			if s == 0 || seen[s] {
				t.Fatalf("seed %#x for n=%d k=%d is zero or repeats", s, n, k)
			}
			seen[s] = true
		}
	}
}
