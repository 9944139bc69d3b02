package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/gmrl/househunt/internal/rng"
)

// TestShardPoolRecoversPanics pins what a panicking phase does to a pool:
// the other shards finish the phase, the panic reaches the caller as a
// *shardPanic naming the shard, the pool keeps working, and close leaves no
// goroutine behind.
func TestShardPoolRecoversPanics(t *testing.T) {
	base := runtime.NumGoroutine()
	const shards = 4
	p := newShardPool(shards)
	ran := make([]bool, shards)
	for _, bad := range []int{2, 0} {
		clear(ran)
		got := func() (v any) {
			defer func() { v = recover() }()
			p.run(func(sh int) {
				if sh == bad {
					panic(fmt.Sprintf("phase failed on shard %d", sh))
				}
				ran[sh] = true
			})
			return nil
		}()
		sp, ok := got.(*shardPanic)
		if !ok {
			t.Fatalf("bad shard %d: recovered %T %v, want *shardPanic", bad, got, got)
		}
		if sp.shard != bad || sp.value != fmt.Sprintf("phase failed on shard %d", bad) {
			t.Fatalf("bad shard %d: got shard %d value %v", bad, sp.shard, sp.value)
		}
		for sh, ok := range ran {
			if sh != bad && !ok {
				t.Fatalf("bad shard %d: shard %d did not finish the phase", bad, sh)
			}
		}
	}
	// The pool is still whole: a clean phase runs on every shard.
	clear(ran)
	p.run(func(sh int) { ran[sh] = true })
	if slices.Contains(ran, false) {
		t.Fatalf("phase after a panic ran on %v, want every shard", ran)
	}
	p.close()
	waitGoroutines(t, base)
}

// TestShardPoolPhases pins the polling barrier at GOMAXPROCS 1 and 2, for a
// pool that polls (2 shards on 2 Ps) and pools that park at once (more
// shards than Ps). Each pool runs thousands of phases, some after a sleep
// longer than the helpers' idle budget so the park and wake path runs too:
// every shard must run every phase exactly once, each phase's writes must be
// visible when run returns, and close must leave no goroutine behind.
func TestShardPoolPhases(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const phases = 3000
	for _, procs := range []int{1, 2} {
		for _, shards := range []int{2, 4} {
			runtime.GOMAXPROCS(procs)
			base := runtime.NumGoroutine()
			p := newShardPool(shards)
			runs := make([]int, shards)
			seen := make([]int, shards)
			for ph := 1; ph <= phases; ph++ {
				if ph%500 == 0 {
					time.Sleep(poolIdleBudget + 5*time.Millisecond)
				}
				p.run(func(sh int) {
					runs[sh]++
					seen[sh] = ph
				})
				for sh := range shards {
					if runs[sh] != ph || seen[sh] != ph {
						t.Fatalf("GOMAXPROCS %d, %d shards, phase %d: shard %d ran %d phases, last %d",
							procs, shards, ph, sh, runs[sh], seen[sh])
					}
				}
			}
			p.close()
			waitGoroutines(t, base)
		}
	}
}

// TestShardPoolParksWhenIdle pins when a helper stops polling: a pool with
// no more shards than GOMAXPROCS polls for poolIdleBudget and then parks,
// a pool with more shards than Ps parks at once, and every parked helper
// wakes for the next dispatch and runs its shard of the phase.
func TestShardPoolParksWhenIdle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		procs, shards int
		idle          time.Duration
	}{{2, 2, poolIdleBudget}, {1, 2, 0}, {2, 3, 0}} {
		runtime.GOMAXPROCS(c.procs)
		base := runtime.NumGoroutine()
		p := newShardPool(c.shards)
		if p.idle != c.idle {
			t.Fatalf("GOMAXPROCS %d, %d shards: idle budget %v, want %v", c.procs, c.shards, p.idle, c.idle)
		}
		runs := make([]int, c.shards)
		for ph := 1; ph <= 3; ph++ {
			deadline := time.Now().Add(10 * time.Second)
			for h := range p.helpers {
				for !p.helpers[h].parked.Load() {
					if time.Now().After(deadline) {
						t.Fatalf("GOMAXPROCS %d, %d shards, before phase %d: helper %d never parked", c.procs, c.shards, ph, h)
					}
					time.Sleep(time.Millisecond)
				}
			}
			p.run(func(sh int) { runs[sh]++ })
			for sh, r := range runs {
				if r != ph {
					t.Fatalf("GOMAXPROCS %d, %d shards, phase %d: shard %d ran %d phases", c.procs, c.shards, ph, sh, r)
				}
			}
		}
		p.close()
		waitGoroutines(t, base)
	}
}

// TestNilShardPoolRunsInline pins the single-shard pool that unsharded
// lanes and the public matcher calls use: newShardPool returns nil below
// two shards, and the nil pool reports one shard and runs each phase once,
// as shard 0, before run returns, starting no goroutine.
func TestNilShardPoolRunsInline(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, shards := range []int{-1, 0, 1} {
		p := newShardPool(shards)
		if p != nil {
			t.Fatalf("newShardPool(%d) = %p, want nil", shards, p)
		}
		if got := p.shards(); got != 1 {
			t.Fatalf("nil pool reports %d shards, want 1", got)
		}
		var ran []int
		p.run(func(sh int) { ran = append(ran, sh) })
		if !slices.Equal(ran, []int{0}) {
			t.Fatalf("nil pool ran shards %v, want [0]", ran)
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after nil pools, want at most %d", n, base)
	}
}

// TestShardSpanPartitions pins the one split every sharded phase uses: the
// shards' spans tile [0, total) in shard order with sizes that differ by at
// most one, some of them empty when there are fewer items than shards, and
// the span after the last shard starts at total, which the lane takes as its
// closing ant bound.
func TestShardSpanPartitions(t *testing.T) {
	for _, total := range []int{0, 1, 2, 7, 1024, 1<<16 + 3, 1_000_000} {
		for _, shards := range []int{1, 2, 3, 4, 16} {
			next, least, most := 0, total, 0
			for sh := range shards {
				lo, hi := shardSpan(total, sh, shards)
				if lo != next || hi < lo {
					t.Fatalf("total %d, %d shards: shard %d spans [%d, %d), want it to start at %d", total, shards, sh, lo, hi, next)
				}
				least, most = min(least, hi-lo), max(most, hi-lo)
				next = hi
			}
			if next != total {
				t.Fatalf("total %d, %d shards: spans end at %d", total, shards, next)
			}
			if most-least > 1 {
				t.Fatalf("total %d, %d shards: span sizes range over %d..%d", total, shards, least, most)
			}
			if lo, _ := shardSpan(total, shards, shards); lo != total {
				t.Fatalf("total %d, %d shards: closing bound %d", total, shards, lo)
			}
		}
	}
}

// TestBatchRunReleasesShardHelpers pins that a sharded lane's helpers do
// not outlive a Batch.Run that succeeds, on both stepping paths: a helper
// still polling after Run returns would hold a core between a caller's
// runs.
func TestBatchRunReleasesShardHelpers(t *testing.T) {
	env := MustEnvironment([]float64{1, 0, 0.6, 0})
	for _, lockstep := range []bool{true, false} {
		base := runtime.NumGoroutine()
		b, err := NewBatch(env, simpleProgram(), 512, WithBatchWorkers(2), WithBatchShards(2))
		if err != nil {
			t.Fatal(err)
		}
		b.lockstep = lockstep
		results, err := b.Run([]uint64{3, 4, 5}, 4000, 1)
		if err != nil {
			t.Fatalf("lockstep=%v: %v", lockstep, err)
		}
		for i, res := range results {
			if !res.Solved || !env.Good(res.Winner) {
				t.Fatalf("lockstep=%v: replicate %d (seed %d) solved=%v winner %d", lockstep, i, res.Seed, res.Solved, res.Winner)
			}
		}
		waitGoroutines(t, base)
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// base. A pool's close and Batch.Run wait for each helper's exit signal,
// which precedes its return by a few instructions: poll until the scheduler
// has reaped them.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, want at most %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// panicSchedule is a fault schedule that panics when stepped at round 3.
type panicSchedule struct{}

func (panicSchedule) Name() string { return "panic" }

func (panicSchedule) Step(v ColonyView, _ *rng.Source, ops []FaultOp) []FaultOp {
	if v.Round() == 3 {
		panic("schedule failed")
	}
	return ops
}

// TestBatchRunRecoversPanics pins that a panic in user code a lane calls
// comes back from Batch.Run as the run's error, naming the replicate, its
// seed and the round, with no lane or shard goroutine left behind: a fault
// schedule panicking on the lane goroutine (general path, two lanes), a
// noisy Count hook panicking on the shards of a two-shard lockstep lane,
// whose *shardPanic stays reachable through errors.As, and an observer
// panicking while a sharded lane sets up.
func TestBatchRunRecoversPanics(t *testing.T) {
	base := runtime.NumGoroutine()
	env := MustEnvironment([]float64{1, 0, 0.6, 0})
	states := []ProgramState{
		{Emit: EmitSearch, Observe: ObserveDiscovery, Next: 1},
		{Emit: EmitRecruitPop, Observe: ObserveAdopt, Next: 2},
		{Emit: EmitGotoNest, Observe: ObserveCount, Next: 1},
	}
	sched := Program{Algorithm: "simple+panic", States: states, Params: ProgramParams{
		Faults: FaultSpec{Salt: 9, NewSchedule: func() FaultSchedule { return panicSchedule{} }},
	}}
	seeds := []uint64{7, 8, 9}
	b, err := NewBatch(env, sched, 256, WithBatchWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if b.lockstep {
		t.Fatal("the scheduled program should take the general path")
	}
	_, err = b.Run(seeds, 100, 1)
	if err == nil {
		t.Fatal("a panicking schedule returned no error")
	}
	var rep int
	var seed uint64
	if _, scanErr := fmt.Sscanf(err.Error(), "sim: batch replicate %d (seed %d): round 3: panicked: schedule failed", &rep, &seed); scanErr != nil || seeds[rep] != seed {
		t.Fatalf("schedule panic: error %q does not name the replicate, its seed and round 3", err)
	}
	waitGoroutines(t, base)

	noisy := Program{Algorithm: "noisy+panic", States: []ProgramState{
		{Emit: EmitSearch, Observe: ObserveDiscoverNoisy, Next: 1},
		{Emit: EmitRecruitPop, Observe: ObserveAdopt, Next: 2},
		{Emit: EmitGotoNest, Observe: ObserveCountNoisy, Next: 1},
	}, Params: ProgramParams{Threshold: 0.5, Count: func(int, int, *rng.Source) int { panic("count hook failed") }}}
	b, err = NewBatch(env, noisy, 256, WithBatchWorkers(2), WithBatchShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if !b.lockstep {
		t.Fatal("the noisy program should take the lockstep path")
	}
	_, err = b.Run([]uint64{5}, 100, 1)
	if err == nil {
		t.Fatal("a panicking Count hook returned no error")
	}
	if !strings.HasPrefix(err.Error(), "sim: batch replicate 0 (seed 5): round 1: sim: shard ") {
		t.Fatalf("count hook panic: error %q does not name the replicate, its seed, round 1 and the shard", err)
	}
	var sp *shardPanic
	if !errors.As(err, &sp) || sp.value != "count hook failed" {
		t.Fatalf("count hook panic: errors.As found no *shardPanic carrying the hook's value in %v", err)
	}
	waitGoroutines(t, base)

	// An observer that panics while a sharded lane sets up, before any
	// replicate.
	b, err = NewBatch(env, Program{Algorithm: "simple", States: states}, 256,
		WithBatchWorkers(2), WithBatchShards(2), WithBatchObserver(panicObserver{lane: 0}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.Run([]uint64{5}, 100, 1)
	if err == nil || !strings.HasPrefix(err.Error(), "sim: batch lane 0: set-up: panicked: observer failed") {
		t.Fatalf("observer panic: error %v does not name the lane set-up", err)
	}
	waitGoroutines(t, base)

	// Two lanes failing differently in one run: lane 1's set-up panics while
	// lane 0's replicates fail on a nil schedule. Either may be first.
	nilSched := sched
	nilSched.Params.Faults.NewSchedule = func() FaultSchedule { return nil }
	b, err = NewBatch(env, nilSched, 256, WithBatchWorkers(2), WithBatchObserver(panicObserver{lane: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = b.Run(seeds, 100, 1); err == nil {
		t.Fatal("a nil schedule and a panicking observer returned no error")
	}
	waitGoroutines(t, base)
}

// panicObserver is a BatchObserver that panics when its lane asks for its
// observer.
type panicObserver struct{ lane int }

func (p panicObserver) LaneObserver(lane int) LaneObserver {
	if lane == p.lane {
		panic("observer failed")
	}
	return nil
}
