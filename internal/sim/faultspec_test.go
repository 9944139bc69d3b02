package sim

import (
	"math"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
)

func TestFaultSpecEnabled(t *testing.T) {
	cases := []struct {
		name string
		spec FaultSpec
		want bool
	}{
		{"zero", FaultSpec{}, false},
		{"windows-only", FaultSpec{CrashWindow: 10, SleepWindow: 10, Salt: 3}, false},
		{"crash", FaultSpec{CrashFraction: 0.1}, true},
		{"byzantine", FaultSpec{ByzantineFraction: 0.1}, true},
		{"sleep", FaultSpec{SleepFraction: 0.1}, true},
		{"schedule-only", FaultSpec{NewSchedule: func() FaultSchedule { return nil }}, true},
	}
	for _, c := range cases {
		if got := c.spec.Enabled(); got != c.want {
			t.Errorf("%s: Enabled() = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFaultSpecValidate(t *testing.T) {
	valid := []FaultSpec{
		{},
		{CrashFraction: 0.3, ByzantineFraction: 0.3, SleepFraction: 0.4},
		{CrashFraction: 1},
	}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", s, err)
		}
	}
	invalid := []FaultSpec{
		{CrashFraction: -0.1},
		{ByzantineFraction: -1},
		{SleepFraction: -0.5},
		{CrashFraction: 0.6, ByzantineFraction: 0.6},
		{CrashFraction: 0.5, ByzantineFraction: 0.3, SleepFraction: 0.3},
		{CrashFraction: 0.1, CrashWindow: -1},
		{SleepFraction: 0.1, SleepWindow: -20},
		// NaN fails every comparison, so each check must put it on the
		// error side; ±Inf fails the sign or the sum.
		{CrashFraction: math.NaN()},
		{ByzantineFraction: math.NaN()},
		{SleepFraction: math.NaN(), SleepWindow: 8},
		{CrashFraction: math.Inf(1)},
		{SleepFraction: math.Inf(-1)},
		{CrashFraction: math.Inf(1), ByzantineFraction: math.Inf(-1)},
	}
	for _, s := range invalid {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
		}
	}
}

// TestFaultSpecEffectiveScheduleSalt pins the adversary-stream derivation: an
// explicit ScheduleSalt wins, and the zero default lands next to the
// victim-assignment salt without colliding with it.
func TestFaultSpecEffectiveScheduleSalt(t *testing.T) {
	cases := []struct {
		spec FaultSpec
		want uint64
	}{
		{FaultSpec{}, 1},
		{FaultSpec{Salt: 7}, 8},
		{FaultSpec{Salt: 7, ScheduleSalt: 99}, 99},
		{FaultSpec{ScheduleSalt: 3}, 3},
	}
	for _, c := range cases {
		if got := c.spec.EffectiveScheduleSalt(); got != c.want {
			t.Errorf("EffectiveScheduleSalt(%+v) = %d, want %d", c.spec, got, c.want)
		}
		if c.spec.ScheduleSalt == 0 && c.spec.EffectiveScheduleSalt() == c.spec.Salt {
			t.Errorf("default schedule salt collides with the fault salt %d", c.spec.Salt)
		}
	}
}

// TestFaultSpecAssignEdges property-checks the two boundary geometries of the
// victim assignment across colony sizes and stream states.
//
// Window 1: every scheduled event lands on its lane's single eligible round —
// all crashes at round 1, all wakes at round 2 — and Intn(1) still consumes
// its draw, so the stream position stays the canonical one.
//
// Fractions summing to exactly 1: the floors can leave at most two ants
// unassigned (one per fractional floor boundary); with fractions that divide
// n exactly, NO ant stays non-faulty, and the three classes still partition
// the colony.
func TestFaultSpecAssignEdges(t *testing.T) {
	for _, n := range []int{4, 37, 200, 1024} {
		for _, seed := range []uint64{1, 42, 2015} {
			crash := make([]int32, n)
			wake := make([]int32, n)
			byz := make([]uint8, n)
			perm := make([]int32, n)

			window1 := FaultSpec{CrashFraction: 0.5, CrashWindow: 1, SleepFraction: 0.5, SleepWindow: 1, Salt: 3}
			window1.Assign(n, rng.New(seed).Split(window1.Salt), crash, wake, byz, perm)
			for i := 0; i < n; i++ {
				if crash[i] != 0 && crash[i] != 1 {
					t.Fatalf("n=%d seed=%d ant %d: crash round %d, want 1 under window 1", n, seed, i, crash[i])
				}
				if wake[i] != 0 && wake[i] != 2 {
					t.Fatalf("n=%d seed=%d ant %d: wake round %d, want 2 under window 1", n, seed, i, wake[i])
				}
			}

			// 1/2 + 1/4 + 1/4 divides every n in the sweep's 4|n cases exactly;
			// for the odd n the floors leave at most 2 ants unassigned.
			sum1 := FaultSpec{CrashFraction: 0.5, CrashWindow: 8, ByzantineFraction: 0.25, SleepFraction: 0.25, SleepWindow: 8, Salt: 3}
			if err := sum1.Validate(); err != nil {
				t.Fatalf("fractions summing to exactly 1 must validate: %v", err)
			}
			sum1.Assign(n, rng.New(seed).Split(sum1.Salt), crash, wake, byz, perm)
			unassigned := 0
			for i := 0; i < n; i++ {
				classes := 0
				if crash[i] > 0 {
					classes++
				}
				if byz[i] != 0 {
					classes++
				}
				if wake[i] > 0 {
					classes++
				}
				if classes > 1 {
					t.Fatalf("n=%d seed=%d ant %d: %d fault classes, want at most 1", n, seed, i, classes)
				}
				if classes == 0 {
					unassigned++
				}
			}
			if n%4 == 0 && unassigned != 0 {
				t.Errorf("n=%d seed=%d: %d ants unassigned under fractions summing to 1, want 0", n, seed, unassigned)
			}
			if unassigned > 2 {
				t.Errorf("n=%d seed=%d: %d ants unassigned, floors can strand at most 2", n, seed, unassigned)
			}
		}
	}
}

// TestFaultSpecAssign checks the canonical victim assignment: victim counts
// are the floors of fraction*n, the three classes are disjoint, scheduled
// rounds respect their windows (crash >= 1, wake >= 2), and the assignment is
// a pure function of the stream (same source state, same columns).
func TestFaultSpecAssign(t *testing.T) {
	const n = 200
	spec := FaultSpec{
		CrashFraction:     0.15,
		CrashWindow:       30,
		ByzantineFraction: 0.1,
		SleepFraction:     0.2,
		SleepWindow:       25,
		Salt:              7,
	}
	crash := make([]int32, n)
	wake := make([]int32, n)
	byz := make([]uint8, n)
	perm := make([]int32, n)
	spec.Assign(n, rng.New(42).Split(spec.Salt), crash, wake, byz, perm)

	nCrash, nByz, nSleep := 0, 0, 0
	for i := 0; i < n; i++ {
		classes := 0
		if crash[i] > 0 {
			nCrash++
			classes++
			if crash[i] < 1 || crash[i] > int32(spec.CrashWindow) {
				t.Errorf("ant %d: crash round %d outside [1, %d]", i, crash[i], spec.CrashWindow)
			}
		}
		if byz[i] != 0 {
			nByz++
			classes++
		}
		if wake[i] > 0 {
			nSleep++
			classes++
			if wake[i] < 2 || wake[i] > int32(spec.SleepWindow)+1 {
				t.Errorf("ant %d: wake round %d outside [2, %d]", i, wake[i], spec.SleepWindow+1)
			}
		}
		if classes > 1 {
			t.Errorf("ant %d assigned to %d fault classes, want at most 1", i, classes)
		}
	}
	if want := int(spec.CrashFraction * n); nCrash != want {
		t.Errorf("crash victims = %d, want %d", nCrash, want)
	}
	if want := int(spec.ByzantineFraction * n); nByz != want {
		t.Errorf("byzantine victims = %d, want %d", nByz, want)
	}
	if want := int(spec.SleepFraction * n); nSleep != want {
		t.Errorf("sleep victims = %d, want %d", nSleep, want)
	}

	// Determinism: a fresh source in the same state reproduces the columns.
	crash2 := make([]int32, n)
	wake2 := make([]int32, n)
	byz2 := make([]uint8, n)
	spec.Assign(n, rng.New(42).Split(spec.Salt), crash2, wake2, byz2, perm)
	for i := 0; i < n; i++ {
		if crash[i] != crash2[i] || wake[i] != wake2[i] || byz[i] != byz2[i] {
			t.Fatalf("ant %d: assignment not reproducible from the same stream", i)
		}
	}
}

// TestFaultSpecAssignDefaultWindows pins that zero windows select
// DefaultFaultWindow for both crash and wake scheduling.
func TestFaultSpecAssignDefaultWindows(t *testing.T) {
	const n = 4096
	spec := FaultSpec{CrashFraction: 0.5, SleepFraction: 0.5}
	crash := make([]int32, n)
	wake := make([]int32, n)
	byz := make([]uint8, n)
	perm := make([]int32, n)
	spec.Assign(n, rng.New(1).Split(9), crash, wake, byz, perm)
	maxCrash, maxWake := int32(0), int32(0)
	for i := 0; i < n; i++ {
		if crash[i] > maxCrash {
			maxCrash = crash[i]
		}
		if wake[i] > maxWake {
			maxWake = wake[i]
		}
	}
	if maxCrash > DefaultFaultWindow {
		t.Errorf("crash round %d exceeds the default window %d", maxCrash, DefaultFaultWindow)
	}
	if maxWake > DefaultFaultWindow+1 {
		t.Errorf("wake round %d exceeds the default window bound %d", maxWake, DefaultFaultWindow+1)
	}
	// With 2048 draws over a 64-round window, every round should be hit;
	// a much smaller spread would mean the default is not being applied.
	if maxCrash != DefaultFaultWindow {
		t.Errorf("crash rounds top out at %d, want the default window %d to be reached", maxCrash, DefaultFaultWindow)
	}
	if maxWake != DefaultFaultWindow+1 {
		t.Errorf("wake rounds top out at %d, want the default bound %d to be reached", maxWake, DefaultFaultWindow+1)
	}
}

// TestFaultSpecAssignAllocationFree pins the doc promise that Assign performs
// no allocations (it runs inside lane.reset on the replicate hot path).
func TestFaultSpecAssignAllocationFree(t *testing.T) {
	const n = 256
	spec := FaultSpec{CrashFraction: 0.2, ByzantineFraction: 0.1, SleepFraction: 0.2, Salt: 5}
	crash := make([]int32, n)
	wake := make([]int32, n)
	byz := make([]uint8, n)
	perm := make([]int32, n)
	src := rng.New(3).Split(spec.Salt)
	allocs := testing.AllocsPerRun(100, func() {
		spec.Assign(n, src, crash, wake, byz, perm)
	})
	if allocs != 0 {
		t.Errorf("Assign allocated %v per call, want 0", allocs)
	}
}
