// Package experiment is the measurement harness behind the experiment tables
// (`go run ./cmd/hhbench -exp <id>`): it executes repeated house-hunting runs
// in parallel, aggregates them with the stats substrate, and provides the
// specialized probes for the paper's lemma-level claims (recruitment success
// probability, ignorant persistence, population-delta symmetry, initial
// gaps, small-nest extinction).
//
// Every probe is deterministic given its seed; the benchmark suite and the
// hhbench CLI both call into this package, so tables regenerate identically
// in either entry point.
package experiment

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/stats"
	"github.com/gmrl/househunt/internal/workload"
)

// ConvergencePoint aggregates repeated runs of one algorithm on one
// environment and colony size.
type ConvergencePoint struct {
	Algorithm string
	N         int
	K         int
	Reps      int
	Solved    int
	// SuccessRate is Solved/Reps.
	SuccessRate float64
	// Rounds summarizes convergence rounds over the SOLVED runs.
	Rounds stats.Summary
	// WinnerQuality summarizes q(winner) over the solved runs.
	WinnerQuality stats.Summary
}

// MeasureConvergence runs reps independent colonies and aggregates. The
// replicates run as one batch-engine sweep when core.CompileForBatch accepts
// (algo, cfg), and otherwise on the scalar engine, parallel across CPUs; both
// give the same point, because each replicate is bit-identical across
// engines. cfg's N and Env are required; its Seed is ignored (each rep
// derives a seed from tag and the rep index). A rep that fails with a
// protocol/configuration error aborts the whole measurement: those are bugs,
// not outcomes.
func MeasureConvergence(algo core.Algorithm, cfg core.RunConfig, reps int, tag string) (ConvergencePoint, error) {
	if err := validateMeasurement(algo, cfg, reps); err != nil {
		return ConvergencePoint{}, err
	}
	runs, err := runColonies(algo, cfg, convergenceSeeds(cfg, reps, tag))
	if err != nil {
		return ConvergencePoint{}, err
	}
	return aggregatePoint(algo, cfg, runs), nil
}

// validateMeasurement rejects the argument shapes every measurement shares.
// A trace holds one colony's rows, so measurements, which run many, take
// none; the scalar loop would otherwise record every replicate into it at
// once.
func validateMeasurement(algo core.Algorithm, cfg core.RunConfig, reps int) error {
	if algo == nil {
		return fmt.Errorf("experiment: nil algorithm")
	}
	if reps <= 0 {
		return fmt.Errorf("experiment: reps must be positive, got %d", reps)
	}
	if cfg.Trace != nil {
		return fmt.Errorf("experiment: measurements record no cfg.Trace")
	}
	return nil
}

// convergenceSeeds derives the per-rep seeds; cfg.Seed is ignored by design
// (each rep's seed is a pure function of tag, cell, and rep index).
func convergenceSeeds(cfg core.RunConfig, reps int, tag string) []uint64 {
	seeds := make([]uint64, reps)
	for rep := range seeds {
		seeds[rep] = workload.SeedFor(tag, cfg.N, cfg.Env.K(), rep+1)
	}
	return seeds
}

// runColonies runs one colony per seed (cfg.Seed is ignored) and returns the
// results in seed order: as one batch-engine sweep when core.CompileForBatch
// accepts (algo, cfg), and otherwise on the scalar engine, parallel across
// CPUs. Each replicate is bit-identical across engines, so the choice never
// shows in the results. With cfg.Trace set it takes exactly one seed, and
// the trace receives the same rows on either engine.
func runColonies(algo core.Algorithm, cfg core.RunConfig, seeds []uint64) ([]core.Result, error) {
	runs, ok, err := core.RunBatch(algo, cfg, seeds)
	switch {
	case err != nil:
		return nil, fmt.Errorf("experiment: batch sweep: %w", err)
	case !ok:
		return runScalarReps(algo, cfg, seeds)
	}
	return runs, nil
}

// runScalarReps executes one scalar replicate per seed, parallel across CPUs.
func runScalarReps(algo core.Algorithm, cfg core.RunConfig, seeds []uint64) ([]core.Result, error) {
	type repResult struct {
		res core.Result
		err error
	}
	results := make([]repResult, len(seeds))
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxParallelism())
	for rep := range seeds {
		wg.Add(1)
		go func(rep int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// A panicking agent, wrapper or schedule fails its replicate
			// instead of ending the process.
			defer func() {
				if v := recover(); v != nil {
					results[rep].err = fmt.Errorf("panicked: %v\n\n%s", v, debug.Stack())
				}
			}()
			repCfg := cfg
			repCfg.Seed = seeds[rep]
			res, err := core.Run(algo, repCfg)
			results[rep] = repResult{res: res, err: err}
		}(rep)
	}
	wg.Wait()
	runs := make([]core.Result, len(seeds))
	for rep, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("experiment: rep %d (seed %d): %w", rep, seeds[rep], r.err)
		}
		runs[rep] = r.res
	}
	return runs, nil
}

// aggregatePoint reduces per-rep results to a ConvergencePoint.
func aggregatePoint(algo core.Algorithm, cfg core.RunConfig, runs []core.Result) ConvergencePoint {
	point := ConvergencePoint{Algorithm: algo.Name(), N: cfg.N, K: cfg.Env.K(), Reps: len(runs)}
	rounds := make([]float64, 0, len(runs))
	quality := make([]float64, 0, len(runs))
	for _, res := range runs {
		if res.Solved {
			point.Solved++
			rounds = append(rounds, float64(res.Rounds))
			quality = append(quality, res.WinnerQuality)
		}
	}
	point.SuccessRate = float64(point.Solved) / float64(len(runs))
	point.Rounds = stats.Summarize(rounds, false)
	point.WinnerQuality = stats.Summarize(quality, false)
	return point
}

// maxParallelism bounds the worker pool: one worker per CPU, at least one.
func maxParallelism() int {
	p := runtime.GOMAXPROCS(0)
	if p < 1 {
		return 1
	}
	return p
}

// Sweep measures a whole (n, k) grid for one algorithm over binary
// environments with the given good-nest count rule (goodOf(k) clamped to
// [1, k]). MaxRounds <= 0 selects the runner's default budget.
func Sweep(algo core.Algorithm, grid workload.Grid, goodOf func(k int) int, reps, maxRounds int) ([]ConvergencePoint, error) {
	if goodOf == nil {
		goodOf = func(k int) int { return k }
	}
	points := make([]ConvergencePoint, 0, len(grid.Ns)*len(grid.Ks))
	for _, n := range grid.Ns {
		for _, k := range grid.Ks {
			good := goodOf(k)
			if good < 1 {
				good = 1
			}
			if good > k {
				good = k
			}
			env, err := workload.Binary(k, good)
			if err != nil {
				return nil, fmt.Errorf("experiment: building env k=%d good=%d: %w", k, good, err)
			}
			cfg := core.RunConfig{N: n, Env: env, MaxRounds: maxRounds}
			pt, err := MeasureConvergence(algo, cfg, reps, grid.Tag+"/"+algo.Name())
			if err != nil {
				return nil, fmt.Errorf("experiment: point n=%d k=%d: %w", n, k, err)
			}
			points = append(points, pt)
		}
	}
	return points, nil
}

// FitRoundsVsLogN fits mean convergence rounds against log2(n) across points
// that share k. It feeds the E3/E6 shape checks.
func FitRoundsVsLogN(points []ConvergencePoint) (stats.LinearFit, error) {
	xs := make([]float64, 0, len(points))
	ys := make([]float64, 0, len(points))
	for _, p := range points {
		if p.Solved == 0 {
			continue
		}
		xs = append(xs, float64(p.N))
		ys = append(ys, p.Rounds.Mean)
	}
	return stats.FitLogN(xs, ys)
}

// FitRoundsVsKLogN fits mean convergence rounds against k·log2(n) across all
// points — Theorem 5.11's shape.
func FitRoundsVsKLogN(points []ConvergencePoint) (stats.LinearFit, error) {
	ks := make([]float64, 0, len(points))
	ns := make([]float64, 0, len(points))
	ys := make([]float64, 0, len(points))
	for _, p := range points {
		if p.Solved == 0 {
			continue
		}
		ks = append(ks, float64(p.K))
		ns = append(ns, float64(p.N))
		ys = append(ys, p.Rounds.Mean)
	}
	return stats.FitKLogN(ks, ns, ys)
}

// Table renders convergence points as an aligned text table.
func Table(title string, points []ConvergencePoint) string {
	tb := stats.NewTable(title, "algorithm", "n", "k", "reps", "success", "rounds(mean)", "rounds(p95)", "winnerQ")
	for _, p := range points {
		tb.AddRow(
			p.Algorithm,
			fmt.Sprintf("%d", p.N),
			fmt.Sprintf("%d", p.K),
			fmt.Sprintf("%d", p.Reps),
			fmt.Sprintf("%.3f", p.SuccessRate),
			fmt.Sprintf("%.1f", p.Rounds.Mean),
			fmt.Sprintf("%.1f", p.Rounds.P95),
			fmt.Sprintf("%.2f", p.WinnerQuality.Mean),
		)
	}
	return tb.String()
}
