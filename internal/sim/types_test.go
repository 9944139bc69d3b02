package sim

import (
	"math"
	"testing"
)

func TestNewEnvironmentValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name      string
		qualities []float64
		wantErr   bool
	}{
		{"empty", nil, true},
		{"all bad", []float64{0, 0, 0}, true},
		{"negative", []float64{-0.1, 1}, true},
		{"above one", []float64{1.1}, true},
		{"NaN", []float64{1, math.NaN()}, true},
		{"plus infinity", []float64{math.Inf(1)}, true},
		{"minus infinity", []float64{1, math.Inf(-1)}, true},
		{"single good", []float64{1}, false},
		{"binary mix", []float64{0, 1, 0, 1}, false},
		{"non-binary", []float64{0.3, 0.9, 0}, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			_, err := NewEnvironment(tc.qualities)
			if (err != nil) != tc.wantErr {
				t.Fatalf("NewEnvironment(%v) error = %v, wantErr %v", tc.qualities, err, tc.wantErr)
			}
		})
	}
}

func TestEnvironmentAccessors(t *testing.T) {
	t.Parallel()
	env := MustEnvironment([]float64{0, 1, 0.5, 0})
	if env.K() != 4 {
		t.Fatalf("K = %d, want 4", env.K())
	}
	if env.Quality(0) != 0 || env.Quality(1) != 0 || env.Quality(2) != 1 || env.Quality(3) != 0.5 {
		t.Fatal("Quality indexing wrong")
	}
	if env.Quality(-1) != 0 || env.Quality(99) != 0 {
		t.Fatal("out-of-range Quality should be 0")
	}
	if env.Good(1) || !env.Good(2) || !env.Good(3) {
		t.Fatal("Good wrong")
	}
	good := env.GoodNests()
	if len(good) != 2 || good[0] != 2 || good[1] != 3 {
		t.Fatalf("GoodNests = %v", good)
	}
}

func TestEnvironmentZeroValue(t *testing.T) {
	t.Parallel()
	var env Environment
	if env.K() != 0 {
		t.Fatalf("zero environment K = %d", env.K())
	}
	if env.Good(1) {
		t.Fatal("zero environment has a good nest")
	}
}

func TestUniform(t *testing.T) {
	t.Parallel()
	env, err := Uniform(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if env.K() != 8 || len(env.GoodNests()) != 3 {
		t.Fatalf("Uniform(8,3): K=%d good=%v", env.K(), env.GoodNests())
	}
	for _, bad := range [][2]int{{0, 1}, {4, 0}, {4, 5}, {-1, -1}} {
		if _, err := Uniform(bad[0], bad[1]); err == nil {
			t.Fatalf("Uniform(%d,%d) accepted", bad[0], bad[1])
		}
	}
}

func TestQualitiesCopies(t *testing.T) {
	t.Parallel()
	env := MustEnvironment([]float64{1, 0})
	qs := env.Qualities()
	qs[1] = 0
	if env.Quality(1) != 1 {
		t.Fatal("Qualities returned internal storage")
	}
}

func TestMustEnvironmentPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("MustEnvironment did not panic on invalid input")
		}
	}()
	MustEnvironment(nil)
}

func TestActionConstructors(t *testing.T) {
	t.Parallel()
	if a := Search(); a.Kind != ActionSearch {
		t.Fatalf("Search() = %+v", a)
	}
	if a := Goto(3); a.Kind != ActionGo || a.Nest != 3 {
		t.Fatalf("Goto(3) = %+v", a)
	}
	if a := Recruit(true, 2); a.Kind != ActionRecruit || a.Nest != 2 || !a.Active {
		t.Fatalf("Recruit(true,2) = %+v", a)
	}
}

func TestActionKindString(t *testing.T) {
	t.Parallel()
	for _, k := range []ActionKind{ActionSearch, ActionGo, ActionRecruit, ActionKind(0)} {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
}
