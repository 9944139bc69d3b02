package sim

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
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
	// close waits for the helpers' wg.Done, which precedes their return by
	// a few instructions: poll until the scheduler has reaped them.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after close, want at most %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}
