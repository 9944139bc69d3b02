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

// waitGoroutines fails the test unless the goroutine count falls back to
// base. A pool's close and Batch.Run wait for each helper's wg.Done, which
// precedes its return by a few instructions: poll until the scheduler has
// reaped them.
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
