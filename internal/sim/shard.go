package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// The pool's wait loops poll an atomic counter. Every pollYield polls they
// call runtime.Gosched, so a pool with more goroutines than free Ps (and the
// GC's workers) still makes progress, and every pollClock polls a helper
// reads the clock to see whether it has been idle for poolIdleBudget.
const (
	pollYield = 64
	pollClock = 256
)

// poolIdleBudget is how long a helper polls for the next phase before it
// parks. It must outlast the serial stretches of its lane: on a 2-core Xeon
// the shuffle and the greedy scan of a million-slot recruit round take 5–8 ms
// together on the lane goroutine, with the target draws fanned out between
// them. A helper that parks sooner gives the gain back, because each wake
// readies it on the lane's P: with helpers that parked after about 20 µs,
// BenchmarkLargeColonyBatch -cpu 2 read 8.44 ns/ant-round, against 7.38 with
// helpers that never parked mid-run.
const poolIdleBudget = 20 * time.Millisecond

// shardPool fans one phase function out across the shards of a single lane.
// A lane that shards its colony owns one pool for its whole lifetime: the
// helper goroutines are spawned once (one per shard beyond the caller's own)
// and wait between phases by polling a phase-sequence counter, so
// dispatching a phase costs an atomic store and an atomic add — no goroutine
// creation, no closure allocation, no channel operation and nothing on the
// per-round heap. The lane waits for its helpers by polling a done counter.
// Neither side parks while a run lasts, so the lane goroutine and its
// helpers keep their cores and caches from phase to phase; a woken goroutine
// would be readied on its waker's P. A helper parks on its wake channel only
// after poolIdleBudget without a phase, or at once when the pool has more
// shards than GOMAXPROCS, where polling would hold Ps the other shards need.
// The phase functions themselves are bound once at lane construction (see
// newLane) and selected by assignment, keeping run alloc-free.
//
// Memory ordering: the fn store happens before the sequence bump, each
// shard's writes happen before its done decrement, and run returns only
// after reading done at zero — so phases are totally ordered across all
// shards and the lane's columns need no further synchronization (each shard
// touches disjoint ranges within a phase).
type shardPool struct {
	seq  atomic.Uint64 // phases dispatched; a nil fn tells the helpers to exit
	_    [56]byte      // seq is polled by the helpers, done by the lane
	done atomic.Int32  // helpers still running the current phase
	idle time.Duration // how long a helper polls before it parks

	fn      func(shard int)
	helpers []poolHelper
	exited  sync.WaitGroup
	panics  []*shardPanic // per shard: the current phase's panic, if it raised one
}

// poolHelper is one helper goroutine's parking state. A helper publishes
// parked, re-checks the sequence counter and only then blocks on wake; a
// dispatcher that finds parked set clears it and sends a token. A token sent
// to a helper that did not block after all stays in the buffer and ends a
// later park early, after which the helper re-checks the counter, so it is
// harmless.
type poolHelper struct {
	parked atomic.Bool
	wake   chan struct{}
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
	p := &shardPool{helpers: make([]poolHelper, shards-1), panics: make([]*shardPanic, shards)}
	if shards <= runtime.GOMAXPROCS(0) {
		p.idle = poolIdleBudget
	}
	p.exited.Add(len(p.helpers))
	for h := range p.helpers {
		p.helpers[h].wake = make(chan struct{}, 1)
		go p.help(h)
	}
	return p
}

// shards returns the number of shards a phase runs on: 1 for a nil pool.
//
//hh:hotpath
func (p *shardPool) shards() int {
	if p == nil {
		return 1
	}
	return len(p.panics)
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
	p.dispatch(fn)
	p.call(0)
	for polls := 1; p.done.Load() != 0; polls++ {
		if polls%pollYield == 0 {
			runtime.Gosched()
		}
	}
	for _, e := range p.panics {
		if e != nil {
			clear(p.panics)
			panic(e)
		}
	}
}

// dispatch publishes fn as the next phase and wakes the helpers that parked.
//
//hh:hotpath
func (p *shardPool) dispatch(fn func(shard int)) {
	p.fn = fn
	p.done.Store(int32(len(p.helpers)))
	p.seq.Add(1)
	for h := range p.helpers {
		if w := &p.helpers[h]; w.parked.Load() && w.parked.Swap(false) {
			select {
			case w.wake <- struct{}{}:
			default: // a stale token is still buffered and wakes the helper as well
			}
		}
	}
}

// help is helper h's loop: it runs shard h+1 of every phase until close
// dispatches the nil phase.
func (p *shardPool) help(h int) {
	defer p.exited.Done()
	var seen uint64
	for {
		seen = p.await(h, seen)
		if p.fn == nil {
			return
		}
		p.call(h + 1)
		p.done.Add(-1)
	}
}

// await returns the phase sequence once it has moved past seen. Helper h
// polls for up to the pool's idle budget, then parks until a dispatch wakes
// it, and re-checks the counter after every wake-up.
//
//hh:hotpath
func (p *shardPool) await(h int, seen uint64) uint64 {
	w := &p.helpers[h]
	for {
		if p.idle > 0 {
			//hh:wallclock the idle budget times a helper's polling; it never feeds simulation state
			start := time.Now()
			for polls := 1; ; polls++ {
				if s := p.seq.Load(); s != seen {
					return s
				}
				if polls%pollYield == 0 {
					runtime.Gosched()
				}
				//hh:wallclock the idle budget times a helper's polling; it never feeds simulation state
				if polls%pollClock == 0 && time.Since(start) > p.idle {
					break
				}
			}
		}
		// Publish the flag before the re-check: a dispatch either bumped the
		// counter before the re-check reads it, or finds the flag set and
		// sends a token.
		w.parked.Store(true)
		if p.seq.Load() == seen {
			<-w.wake
		}
		w.parked.Store(false)
		if s := p.seq.Load(); s != seen {
			return s
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

// close stops the helpers and returns once they have exited, so nothing of
// the pool polls after it returns. The pool must be idle.
func (p *shardPool) close() {
	p.dispatch(nil)
	p.exited.Wait()
}
