package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// The host this benchmark runs on shares its cores and memory with other
// machines, and its speed drifts by 10-35% over seconds to minutes while a
// run's own work stays the same. A benchmark-owned reference kernel, sampled
// between ops through the whole run, drifts with it when it stresses what the
// workload stresses: on a 2-core Xeon, eight same-seed emigration runs spread
// 8.9% in raw median op time and 2.0% once each op is divided by the kernel
// time sampled around it. So every end-to-end time is reported at reference
// speed, raw × refNominal / ref, where ref is the kernel's duration at the
// sample points either side of the timed interval; the record line keeps
// the raw values beside them.

// refNominal is the reference kernel's duration at reference speed, about
// its duration on a quiet 2-core Xeon.
const refNominal = time.Millisecond

// calibrator samples the reference kernel.
type calibrator struct {
	tables     [][]uint32 // one per worker
	iters      int        // draws per worker per kernel run
	points     []float64  // per sample point, the median of three kernel runs, ns
	goroutines int        // goroutines alive when no op runs
	last       time.Time
	sink       uint64
}

// newCalibrator builds the kernel for a workload: tableWords entries per
// worker and GOMAXPROCS workers, as the batch engine sizes its worker pool.
// The tables are written through once so no sample pays for page faults.
func newCalibrator(tableWords, iters int) *calibrator {
	c := &calibrator{iters: iters, goroutines: runtime.NumGoroutine()}
	for range runtime.GOMAXPROCS(0) {
		t := make([]uint32, tableWords)
		for i := range t {
			t[i] = uint32(i)
		}
		c.tables = append(c.tables, t)
	}
	return c
}

// due reports whether a quarter second has passed since the last point.
func (c *calibrator) due() bool { return time.Since(c.last) >= 250*time.Millisecond }

// next is the index the next sample point will take; a timed interval that
// ends now is scaled by the points either side of it.
func (c *calibrator) next() int { return len(c.points) }

// sample takes a point: three kernel runs. No op may leave goroutines
// running, since they would slow the kernel and flatter every scaled time.
func (c *calibrator) sample() error {
	for i := 0; runtime.NumGoroutine() > c.goroutines; i++ {
		if i == 100 {
			return fmt.Errorf("%d goroutines still running between ops, want %d", runtime.NumGoroutine(), c.goroutines)
		}
		time.Sleep(time.Millisecond)
	}
	runs := make([]float64, 3)
	for i := range runs {
		runs[i] = float64(c.kernel())
	}
	c.points = append(c.points, median(runs))
	c.last = time.Now()
	return nil
}

// kernel runs iters xorshift draws on every worker at once, each draw a
// random read-modify-write of the worker's table plus a sequential read, and
// returns the wall time until the slowest worker finishes.
func (c *calibrator) kernel() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, len(c.tables))
	for w, t := range c.tables {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mask := uint64(len(t) - 1)
			x, s := 0x9E3779B97F4A7C15+uint64(w), uint32(0)
			for i := range c.iters {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				t[x&mask] += uint32(i)
				s += t[uint64(i)&mask]
			}
			sums[w] = x + uint64(s)
		}()
	}
	wg.Wait()
	el := time.Since(start)
	for _, s := range sums {
		c.sink += s
	}
	return el
}

// scale converts a raw duration to reference speed, for an interval that
// ended before point p: refNominal over the mean of the points either side.
func (c *calibrator) scale(p int) float64 {
	ref := c.points[p]
	if p > 0 {
		ref = (c.points[p-1] + ref) / 2
	}
	return float64(refNominal) / ref
}
