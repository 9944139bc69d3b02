package main

import (
	"errors"
	"fmt"
	"hash"
	"reflect"

	"github.com/gmrl/househunt"
	"github.com/gmrl/househunt/internal/algo"
	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/experiment"
	"github.com/gmrl/househunt/internal/faults"
	"github.com/gmrl/househunt/internal/nest"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/stats"
	"github.com/gmrl/househunt/internal/workload"
)

// sizes fixes how much work one op does. The benchmark runs defaultSizes;
// bench_test.go runs every workload through a shrunken copy.
type sizes struct {
	sweepN, sweepReps int // colony size and colonies per sweep op
	colonyN           int // colony size of a colony-1m op
	emigN             int // colony size of an emigration op
	setupReps         int // set-up repetitions behind setup_s
	probeDraws        int // draws or slots per kernel-probe sample
	truncRounds       int // rounds of the colony-1m scalar oracle in traced runs
}

var defaultSizes = sizes{
	sweepN: 1024, sweepReps: 32,
	colonyN:     1_000_000,
	emigN:       4096,
	setupReps:   5,
	probeDraws:  1 << 20,
	truncRounds: 4,
}

// sweepMaxRounds bounds every sweep colony, as hhbench's sweep cells do.
const sweepMaxRounds = 4000

// opKind names the public entry point one op calls.
type opKind int

const (
	opSweep      opKind = iota // experiment.MeasureConvergence
	opStream                   // experiment.MeasureConvergenceStreamed
	opColony                   // core.RunBatch, one replicate on all workers
	opEmigration               // househunt.Run
)

// cell is one configuration a workload rotates through.
type cell struct {
	name      string // metric-safe label, used in cell.<name>.ns_per_ant_round
	kind      opKind
	algo      core.Algorithm
	hhAlgo    househunt.Algorithm // emigration: the facade's name for algo
	wrap      core.AgentWrapper   // fault spec, or nil
	traced    bool                // emigration: househunt.WithTracing
	n, k      int
	good      int
	reps      int // sweep colonies per op
	maxRounds int
}

// workloadSpec is one benchmark workload: a closed loop over its cells.
type workloadSpec struct {
	name  string
	cells []cell
	// oracleEvery is the per-cell period of the untimed cross-engine check:
	// a cell's first op and every oracleEvery-th after it; 0 checks only the
	// first.
	oracleEvery int
	// memoryBound selects the reference kernel whose table exceeds the
	// last-level cache: the op's time follows memory latency, not core speed.
	memoryBound bool
}

// defaultMaxRounds mirrors the round budget core.RunConfig documents for
// MaxRounds == 0, which colony and emigration ops use; replays pass it to
// sim.Batch.Run and the scalar step loop explicitly.
func defaultMaxRounds(n, k int) int {
	log2n := 0
	for v := n; v > 1; v >>= 1 {
		log2n++
	}
	return 64 * (k + 1) * (log2n + 1)
}

// sweepCells are the ten replicate-sweep cells: the first six run on the
// batch engine's lockstep path, the last four on its general path.
func sweepCells(s sizes) []cell {
	c := func(name string, kind opKind, a core.Algorithm, wrap core.AgentWrapper) cell {
		return cell{name: name, kind: kind, algo: a, wrap: wrap,
			n: s.sweepN, k: 4, good: 2, reps: s.sweepReps, maxRounds: sweepMaxRounds}
	}
	return []cell{
		c("simple", opSweep, algo.Simple{}, nil),
		c("simple-stream", opStream, algo.Simple{}, nil),
		c("adaptive", opSweep, algo.Adaptive{}, nil),
		c("quality", opSweep, algo.QualityAware{}, nil),
		c("approxn", opSweep, algo.ApproxN{Delta: 0.2}, nil),
		c("noisy", opSweep, algo.Noisy{Counter: nest.RelativeNoiseCounter{Sigma: 0.1}}, nil),
		c("optimal", opSweep, algo.Optimal{}, nil),
		c("quorum", opSweep, algo.Quorum{}, nil),
		c("simple-crash10", opSweep, algo.Simple{}, faults.Spec{CrashFraction: 0.1, CrashWindow: 64, Salt: 6001}),
		c("simple-targeted", opSweep, algo.Simple{}, faults.Spec{Salt: 6002, NewSchedule: func() faults.Schedule {
			return &faults.TargetedCrash{PerRound: 1, Budget: 10}
		}}),
	}
}

// workloads lists the benchmark's workloads at the given sizes.
func workloads(s sizes) []workloadSpec {
	sweeps := sweepCells(s)
	emig := func(name string, hh househunt.Algorithm, a core.Algorithm, traced bool) cell {
		return cell{name: name, kind: opEmigration, algo: a, hhAlgo: hh, traced: traced,
			n: s.emigN, k: 8, good: 4, maxRounds: defaultMaxRounds(s.emigN, 8)}
	}
	return []workloadSpec{
		{name: "sweep-lockstep", cells: sweeps[:6], oracleEvery: 64},
		{name: "sweep-general", cells: sweeps[6:], oracleEvery: 64},
		{name: "colony-1m", memoryBound: true, cells: []cell{{name: "simple", kind: opColony, algo: algo.Simple{},
			n: s.colonyN, k: 16, good: 2, maxRounds: defaultMaxRounds(s.colonyN, 16)}}},
		{name: "emigration", oracleEvery: 16, cells: []cell{
			emig("simple", househunt.AlgorithmSimple, algo.Simple{}, false),
			emig("simple-traced", househunt.AlgorithmSimple, algo.Simple{}, true),
			emig("optimal", househunt.AlgorithmOptimal, algo.Optimal{}, false),
			emig("optimal-traced", househunt.AlgorithmOptimal, algo.Optimal{}, true),
		}},
	}
}

// calibrator builds the workload's reference kernel, each sized to take
// about refNominal on a quiet 2-core Xeon: a 256 KiB table per worker, or a
// 16 MiB one for memoryBound workloads.
func (w workloadSpec) calibrator() *calibrator {
	if w.memoryBound {
		return newCalibrator(1<<22, 100_000)
	}
	return newCalibrator(1<<16, 350_000)
}

func (w workloadSpec) oracleDue(cellOp int) bool {
	if w.oracleEvery == 0 {
		return cellOp == 0
	}
	return cellOp%w.oracleEvery == 0
}

func (c cell) env() sim.Environment {
	env, err := workload.Binary(c.k, c.good)
	if err != nil {
		panic(fmt.Sprintf("bench: cell %s: %v", c.name, err)) // the cell tables are constants
	}
	return env
}

func (c cell) runConfig() core.RunConfig {
	return core.RunConfig{N: c.n, Env: c.env(), MaxRounds: c.maxRounds, Wrap: c.wrap}
}

// seeds returns the colony seeds an op with this tag runs: the sweep's
// per-rep seeds exactly as experiment.MeasureConvergence derives them, or the
// single colony seed of a colony or emigration op.
func (c cell) seeds(tag string) []uint64 {
	if c.kind == opColony || c.kind == opEmigration {
		return []uint64{workload.SeedFor(tag, c.n, c.k, 0)}
	}
	seeds := make([]uint64, c.reps)
	for rep := range seeds {
		seeds[rep] = workload.SeedFor(tag, c.n, c.k, rep+1)
	}
	return seeds
}

// outcome is what one op returned, as its checks and replays see it.
type outcome struct {
	point     experiment.ConvergencePoint       // sweeps
	dist      *experiment.StreamedDistributions // stream sweeps
	results   []core.Result                     // colony ops
	hh        *househunt.Result                 // emigration ops
	history   []househunt.RoundSnapshot         // traced emigration ops
	antRounds int64                             // ant-rounds the op executed
}

// run issues the op: the only call the benchmark times.
func (c cell) run(tag string) (outcome, error) {
	switch c.kind {
	case opSweep:
		pt, err := experiment.MeasureConvergence(c.algo, c.runConfig(), c.reps, tag)
		return outcome{point: pt}, err
	case opStream:
		pt, dist, err := experiment.MeasureConvergenceStreamed(c.algo, c.runConfig(), c.reps, tag)
		return outcome{point: pt, dist: dist}, err
	case opColony:
		res, ok, err := core.RunBatch(c.algo, c.runConfig(), c.seeds(tag))
		if err == nil && !ok {
			err = errors.New("core.RunBatch declined the colony")
		}
		return outcome{results: res}, err
	default:
		opts := []househunt.Option{
			househunt.WithColonySize(c.n),
			househunt.WithBinaryNests(c.k, c.good),
			househunt.WithAlgorithm(c.hhAlgo),
			househunt.WithSeed(c.seeds(tag)[0]),
		}
		if c.traced {
			opts = append(opts, househunt.WithTracing())
		}
		res, err := househunt.Run(opts...)
		return outcome{hh: res}, err
	}
}

// measure fills in the op's ant-round count after the timed call.
func (c cell) measure(o *outcome) {
	switch c.kind {
	case opSweep, opStream:
		pt := o.point
		rounds := int64(pt.Rounds.TotalObserved) + int64(pt.Reps-pt.Solved)*int64(c.maxRounds)
		o.antRounds = rounds * int64(c.n)
	case opColony:
		for _, r := range o.results {
			o.antRounds += int64(r.Rounds) * int64(c.n)
		}
	default:
		o.antRounds = int64(o.hh.Rounds) * int64(c.n)
		if c.traced {
			o.history = o.hh.History()
		}
	}
}

// check verifies the invariants every op's output must satisfy: every colony
// solved, every winner a good nest, a positive round count, and the
// entry point's own bookkeeping consistent with itself.
func (c cell) check(o outcome) error {
	if o.antRounds <= 0 {
		return fmt.Errorf("op executed %d ant-rounds", o.antRounds)
	}
	switch c.kind {
	case opSweep, opStream:
		pt := o.point
		if pt.Reps != c.reps || pt.Solved != c.reps {
			return fmt.Errorf("solved %d of %d colonies (want all %d)", pt.Solved, pt.Reps, c.reps)
		}
		if pt.WinnerQuality.Min <= 0 {
			return fmt.Errorf("a solved colony chose a nest of quality %v", pt.WinnerQuality.Min)
		}
		if pt.Rounds.Min < 1 {
			return fmt.Errorf("a colony converged in %v rounds", pt.Rounds.Min)
		}
		if c.kind == opStream {
			d := o.dist
			switch {
			case d == nil || !d.Streamed:
				return errors.New("the streamed sweep fell back to the scalar path")
			case d.Rounds.N() != pt.Solved || d.Rounds.Min() != pt.Rounds.Min || d.Rounds.Max() != pt.Rounds.Max:
				return fmt.Errorf("streamed rounds (n=%d, %v..%v) disagree with the point (n=%d, %v..%v)",
					d.Rounds.N(), d.Rounds.Min(), d.Rounds.Max(), pt.Solved, pt.Rounds.Min, pt.Rounds.Max)
			case d.RoundsObserved != uint64(pt.Rounds.TotalObserved):
				return fmt.Errorf("streamed %d round records for %v solved rounds", d.RoundsObserved, pt.Rounds.TotalObserved)
			}
		}
		return nil
	case opColony:
		if len(o.results) != 1 {
			return fmt.Errorf("%d results for one seed", len(o.results))
		}
		return checkColony(c, fromCore(o.results[0]))
	default:
		if o.hh == nil {
			return errors.New("no result")
		}
		r := fromHH(o.hh)
		if err := checkColony(c, r); err != nil {
			return err
		}
		if c.traced {
			h := o.history
			if len(h) != r.Rounds || h[len(h)-1].Round != r.Rounds {
				return fmt.Errorf("trace holds %d rounds for a %d-round run", len(h), r.Rounds)
			}
			if !reflect.DeepEqual(h[len(h)-1].Commitments, r.Committed) {
				return fmt.Errorf("last traced census %v differs from the result's %v", h[len(h)-1].Commitments, r.Committed)
			}
		}
		return nil
	}
}

// colonyResult is the part of one colony's result every entry point reports.
type colonyResult struct {
	Solved    bool
	Winner    int
	Quality   float64
	Rounds    int
	Committed []int
	Faulty    int
}

func fromCore(r core.Result) colonyResult {
	return colonyResult{r.Solved, int(r.Winner), r.WinnerQuality, r.Rounds, r.FinalCensus.Committed, r.FinalCensus.Faulty}
}

func fromHH(r *househunt.Result) colonyResult {
	return colonyResult{r.Solved, r.Winner, r.WinnerQuality, r.Rounds, r.Commitments, r.FaultyAnts}
}

func checkColony(c cell, r colonyResult) error {
	switch {
	case !r.Solved:
		return fmt.Errorf("colony unsolved after %d rounds", r.Rounds)
	case r.Rounds < 1:
		return fmt.Errorf("colony converged in %d rounds", r.Rounds)
	case r.Winner < 1 || r.Winner > c.k || !c.env().Good(sim.NestID(r.Winner)) || r.Quality <= 0:
		return fmt.Errorf("colony chose nest %d of quality %v", r.Winner, r.Quality)
	case len(r.Committed) != c.k+1 || r.Committed[r.Winner] != c.n-r.Faulty:
		return fmt.Errorf("census %v is not unanimous for nest %d", r.Committed, r.Winner)
	}
	return nil
}

// oracle is the untimed cross-engine check of one op, run on the schedule
// oracleDue sets. Sweeps re-run on core.RunBatch (the aggregate must equal
// the op's point) and its first four colonies on core.Run; a colony-1m op
// re-runs on one worker and one shard; an emigration op re-runs on
// core.RunBatch. Every comparison is exact.
func (c cell) oracle(tag string, o outcome) error {
	cfg := c.runConfig()
	seeds := c.seeds(tag)
	switch c.kind {
	case opSweep, opStream:
		batch, err := runBatch(c, cfg, seeds)
		if err != nil {
			return err
		}
		if pt := aggregate(c, batch); !reflect.DeepEqual(pt, o.point) {
			return fmt.Errorf("core.RunBatch aggregate %+v differs from the op's point %+v", pt, o.point)
		}
		for i := 0; i < 4 && i < len(seeds); i++ {
			scfg := cfg
			scfg.Seed = seeds[i]
			scalar, err := core.Run(c.algo, scfg)
			if err != nil {
				return fmt.Errorf("core.Run: %w", err)
			}
			if !reflect.DeepEqual(scalar, batch[i]) {
				return fmt.Errorf("seed %d: core.Run %+v differs from core.RunBatch %+v", seeds[i], scalar, batch[i])
			}
		}
	case opColony:
		cfg.BatchWorkers, cfg.BatchShards = 1, 1
		one, err := runBatch(c, cfg, seeds)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(one, o.results) {
			return fmt.Errorf("one-worker re-run %+v differs from the op's %+v", one, o.results)
		}
	default:
		batch, err := runBatch(c, cfg, seeds)
		if err != nil {
			return err
		}
		if got, want := fromCore(batch[0]), fromHH(o.hh); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("core.RunBatch %+v differs from househunt.Run %+v", got, want)
		}
	}
	return nil
}

func runBatch(c cell, cfg core.RunConfig, seeds []uint64) ([]core.Result, error) {
	res, ok, err := core.RunBatch(c.algo, cfg, seeds)
	if err != nil {
		return nil, fmt.Errorf("core.RunBatch: %w", err)
	}
	if !ok {
		return nil, fmt.Errorf("core.RunBatch declined cell %s", c.name)
	}
	return res, nil
}

// aggregate folds per-colony results into the point experiment's sweeps
// report, in rep order, the same fold MeasureConvergence applies.
func aggregate(c cell, runs []core.Result) experiment.ConvergencePoint {
	pt := experiment.ConvergencePoint{Algorithm: c.algo.Name(), N: c.n, K: c.k, Reps: len(runs)}
	var rounds, quality []float64
	for _, r := range runs {
		if r.Solved {
			pt.Solved++
			rounds = append(rounds, float64(r.Rounds))
			quality = append(quality, r.WinnerQuality)
		}
	}
	pt.SuccessRate = float64(pt.Solved) / float64(len(runs))
	pt.Rounds = stats.Summarize(rounds, false)
	pt.WinnerQuality = stats.Summarize(quality, false)
	return pt
}

// digestOp folds the op's checked output into the run's result digest.
func digestOp(h hash.Hash64, c cell, o outcome) {
	var rs []colonyResult
	switch c.kind {
	case opSweep, opStream:
		pt := o.point
		fmt.Fprintf(h, "%s|%d|%d|%v|%v|%v|", c.name, pt.Reps, pt.Solved, pt.Rounds.TotalObserved, pt.Rounds.Min, pt.Rounds.Max)
		return
	case opColony:
		for _, r := range o.results {
			rs = append(rs, fromCore(r))
		}
	default:
		rs = append(rs, fromHH(o.hh))
	}
	for _, r := range rs {
		fmt.Fprintf(h, "%s|%+v|", c.name, r)
	}
}
