package sim

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// shardPool fans one phase function out across the shards of a single lane.
// A lane that shards its colony owns one pool for its whole lifetime: the
// helper goroutines are spawned once (one per shard beyond the caller's own)
// and parked on buffered wake channels between phases, so dispatching a phase
// costs channel operations only — no goroutine creation, no closure
// allocation, nothing on the per-round heap. The phase functions themselves
// are bound once at lane construction (see newLane) and selected by
// assignment, keeping run alloc-free.
//
// Memory ordering: the fn store happens before every wake send, each helper's
// work happens before its wg.Done, and run returns only after wg.Wait — so
// phases are totally ordered across all shards and the lane's columns need no
// further synchronization (each shard touches disjoint ranges within a phase).
type shardPool struct {
	fn     func(shard int)
	wake   []chan struct{}
	wg     sync.WaitGroup
	panics []*shardPanic // per shard: the current phase's panic, if it raised one
}

// shardPanic is the value run re-panics with when a phase panicked on one of
// the pool's shards: the shard's index, the recovered value and the stack it
// was raised on, which the re-panic on the lane goroutine would otherwise
// lose.
type shardPanic struct {
	shard int
	value any
	stack []byte
}

func (e *shardPanic) Error() string {
	return fmt.Sprintf("sim: shard %d panicked: %v\n\n%s", e.shard, e.value, e.stack)
}

// newShardPool spawns shards-1 helper goroutines (shard 0 runs on the
// caller). Returns nil when shards < 2: a nil pool runs each phase inline.
// close stops the helpers.
func newShardPool(shards int) *shardPool {
	if shards < 2 {
		return nil
	}
	p := &shardPool{wake: make([]chan struct{}, shards-1), panics: make([]*shardPanic, shards)}
	for h := range p.wake {
		c := make(chan struct{}, 1)
		p.wake[h] = c
		go func(shard int) {
			for range c {
				p.call(shard)
				p.wg.Done()
			}
			p.wg.Done() // close's count: this helper has exited
		}(h + 1)
	}
	return p
}

// shardSpan returns shard sh's chunk [lo, hi) of total items split evenly
// over shards: the one split every sharded phase uses.
//
//hh:hotpath
func shardSpan(total, sh, shards int) (lo, hi int) {
	t, s := int64(total), int64(shards)
	return int(t * int64(sh) / s), int(t * int64(sh+1) / s)
}

// run executes fn(shard) for every shard, shard 0 on the calling goroutine,
// and returns when all shards have finished; a nil pool runs fn(0) inline.
// fn should be a function value bound once, such as one of the lane's fn*
// fields, so the dispatch performs no allocation. A shard that panics does
// not take the process down from a helper goroutine: every other shard
// still finishes the phase, and run then re-panics on the caller with a
// *shardPanic naming the lowest panicking shard. The pool stays usable.
//
//hh:hotpath
func (p *shardPool) run(fn func(shard int)) {
	if p == nil {
		fn(0)
		return
	}
	p.fn = fn
	p.wg.Add(len(p.wake))
	for _, c := range p.wake {
		c <- struct{}{}
	}
	p.call(0)
	p.wg.Wait()
	for _, e := range p.panics {
		if e != nil {
			clear(p.panics)
			panic(e)
		}
	}
}

// call runs the current phase on one shard, recording a panic for run to
// re-raise instead of unwinding the shard's goroutine.
//
//hh:hotpath
func (p *shardPool) call(shard int) {
	defer p.catch(shard)
	p.fn(shard)
}

// catch is call's deferred recover.
//
//hh:coldpath allocates only to record a panic, which ends the phase
func (p *shardPool) catch(shard int) {
	if v := recover(); v != nil {
		p.panics[shard] = &shardPanic{shard: shard, value: v, stack: debug.Stack()}
	}
}

// close stops the helpers and returns once they have exited. The pool must
// be idle.
func (p *shardPool) close() {
	p.wg.Add(len(p.wake))
	for _, c := range p.wake {
		close(c)
	}
	p.wg.Wait()
}
