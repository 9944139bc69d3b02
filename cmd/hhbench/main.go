// Command hhbench regenerates the experiment tables: one experiment per
// lemma/theorem/extension claim of the paper (E1-E27), each printed by
// `go run ./cmd/hhbench -exp <id>`.
//
// Examples:
//
//	hhbench -list
//	hhbench -exp E9
//	hhbench -exp all -scale full
//	hhbench -engine scalar -exp E9   (force the scalar replicate loop)
//	hhbench -batchbench              (batch vs scalar throughput comparison)
//	hhbench -batchbench -json        (machine-readable BENCH records)
//	hhbench -batchbench -json -out BENCH_pr5.json   (write the artifact)
//	hhbench -batchbench -json -baseline BENCH_pr5.json   (regression gate)
//	hhbench -exp E9 -cpuprofile cpu.prof   (profile any run's hot path)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/gmrl/househunt/internal/algo"
	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/experiment"
	"github.com/gmrl/househunt/internal/faults"
	"github.com/gmrl/househunt/internal/nest"
	"github.com/gmrl/househunt/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hhbench:", err)
		os.Exit(1)
	}
}

// run executes the selected experiments; split from main for testability.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hhbench", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "all", "experiment id (E1..E27) or 'all'")
		scale      = fs.String("scale", "small", "experiment sizing: small or full")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		engine     = fs.String("engine", "auto", "replicate engine: auto (batch where eligible) or scalar")
		batchbench = fs.Bool("batchbench", false, "run the batch vs scalar replicate-sweep throughput comparison and exit")
		jsonOut    = fs.Bool("json", false, "with -batchbench, write machine-readable BENCH records instead of text")
		outFile    = fs.String("out", "", "with -batchbench -json, also write the BENCH records to this file (the committed perf artifact)")
		baseline   = fs.String("baseline", "", "with -batchbench, compare batch ms/sweep against this BENCH records file and fail on regression")
		tolerance  = fs.Float64("tolerance", 0.30, "with -baseline, the accepted relative ms/sweep regression before failing")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile of the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch strings.ToLower(*engine) {
	case "auto":
		experiment.SetBatchEngine(true)
	case "scalar":
		experiment.SetBatchEngine(false)
	default:
		return fmt.Errorf("unknown engine %q (want auto or scalar)", *engine)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("creating cpu profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("starting cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("creating mem profile: %w", err)
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hhbench: writing mem profile:", err)
			}
			f.Close()
		}()
	}

	if *jsonOut && !*batchbench {
		return fmt.Errorf("-json requires -batchbench")
	}
	if (*outFile != "" || *baseline != "") && !*batchbench {
		return fmt.Errorf("-out and -baseline require -batchbench")
	}
	if *outFile != "" && !*jsonOut {
		return fmt.Errorf("-out requires -json")
	}
	if *batchbench {
		bb := defaultBatchBench(*jsonOut)
		bb.out = *outFile
		bb.baseline = *baseline
		bb.tolerance = *tolerance
		return runBatchBench(out, bb)
	}

	if *list {
		for _, id := range experiment.IDs() {
			fmt.Fprintln(out, id)
		}
		return nil
	}

	var sc experiment.Scale
	switch strings.ToLower(*scale) {
	case "small":
		sc = experiment.ScaleSmall
	case "full":
		sc = experiment.ScaleFull
	default:
		return fmt.Errorf("unknown scale %q (want small or full)", *scale)
	}

	ids := experiment.IDs()
	if !strings.EqualFold(*exp, "all") {
		ids = []string{*exp}
	}

	failed := 0
	for _, id := range ids {
		start := time.Now()
		rep, err := experiment.RunExperiment(id, sc)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		fmt.Fprint(out, rep)
		fmt.Fprintf(out, "(elapsed %.1fs)\n\n", time.Since(start).Seconds())
		if !rep.Pass {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) reported a violated shape", failed)
	}
	return nil
}

// batchBenchConfig sizes the batch-vs-scalar comparison; the test shrinks it
// so the JSON record path stays exercisable in unit-test time.
type batchBenchConfig struct {
	n, k, good, reps, maxRounds int
	minTime                     time.Duration
	json                        bool
	out                         string  // also write the JSON records to this file
	baseline                    string  // compare against this BENCH records file
	tolerance                   float64 // accepted relative ms/sweep regression
	obsTolerance                float64 // accepted relative overhead of the observed batch cell
	// bigN > 0 adds the large-colony cell: one batch-only sweep of bigReps
	// colonies of bigN ants over bigK nests (no scalar baseline — the scalar
	// oracle at 10^6 ants would dominate the whole run), plus one
	// single-replicate worker-scaling row per scaleWorkers entry, each
	// checked bit-identical to the 1-worker reference.
	bigN, bigK, bigGood, bigReps int
	scaleWorkers                 []int
}

// defaultBatchBench is the published benchmark point: n=1024, k=4, R=32
// replicate colonies, at least a second of measurement per engine, plus the
// million-ant cell (n=10^6, k=16, R=4) that pins the post-ceiling fixed-point
// path and the worker-scaling rows (1, 2 and GOMAXPROCS workers on one
// replicate). The streaming-telemetry cell must stay within 10% of the
// unobserved batch engine — the observer is on the hot path, so its cost is
// gated, not merely reported.
func defaultBatchBench(jsonOut bool) batchBenchConfig {
	workers := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p > 2 {
		workers = append(workers, p)
	}
	return batchBenchConfig{
		n: 1024, k: 4, good: 2, reps: 32, maxRounds: 4000, minTime: time.Second,
		json: jsonOut, obsTolerance: 0.10,
		bigN: 1_000_000, bigK: 16, bigGood: 2, bigReps: 4, scaleWorkers: workers,
	}
}

// benchRecord is the machine-readable BENCH line -batchbench -json emits, one
// per (algorithm, engine) cell; the batch cells carry the speedup over their
// scalar baseline. The record tracks the perf trajectory across PRs.
type benchRecord struct {
	Type           string  `json:"type"` // always "BENCH"
	Engine         string  `json:"engine"`
	Algorithm      string  `json:"algorithm"`
	N              int     `json:"n"`
	K              int     `json:"k"`
	Reps           int     `json:"reps"`
	MsPerSweep     float64 `json:"ms_per_sweep"`
	AntStepsPerSec float64 `json:"ant_steps_per_sec"`
	Speedup        float64 `json:"speedup,omitempty"`
	// Workers is the batch worker budget of a scaling row; 0 (omitted) means
	// the engine default and keeps pre-PR-9 records' keys unchanged.
	Workers int `json:"workers,omitempty"`
}

// batchBenchCell is one benchmarked (algorithm, adversary) configuration; the
// tag distinguishes faulted cells in the BENCH records, and wrap (a
// faults.Spec) routes both engines through the same adversary.
type batchBenchCell struct {
	algo core.Algorithm
	tag  string
	wrap core.AgentWrapper
}

// name is the record/reporting label of the cell.
func (c batchBenchCell) name() string { return c.algo.Name() + c.tag }

// batchBenchCells is the benchmarked inventory: every compiled algorithm —
// Algorithm 3 (simple, lockstep path), Algorithm 2 (optimal, per-ant state
// column path), the §6 recruit-draw extensions (adaptive, quality, approxn;
// lockstep with parameter columns), the quorum-transport strategy (general
// path with carry-aware matching) and the noisy-perception model (lockstep
// with estimator hooks) — plus a faulted cell timing the crash lanes (the
// scalar side runs the wrapped agents, the batch side the same spec compiled
// into the program) and an adaptive-adversary cell timing the per-round
// schedule pass (census snapshot + mutation application every round).
func batchBenchCells() []batchBenchCell {
	return []batchBenchCell{
		{algo: algo.Simple{}},
		{algo: algo.Optimal{}},
		{algo: algo.Adaptive{}},
		{algo: algo.QualityAware{}},
		{algo: algo.ApproxN{Delta: 0.2}},
		{algo: algo.Quorum{}},
		{algo: algo.Noisy{Counter: nest.RelativeNoiseCounter{Sigma: 0.1}}},
		{algo: algo.Simple{}, tag: "+crash10", wrap: faults.Spec{CrashFraction: 0.1, CrashWindow: 64, Salt: 6001}},
		{algo: algo.Simple{}, tag: "+targeted", wrap: faults.Spec{Salt: 6002, NewSchedule: func() faults.Schedule {
			return &faults.TargetedCrash{PerRound: 1, Budget: 10}
		}}},
	}
}

// runBatchBench times the same replicate sweep (R colonies of n ants to
// convergence) on the scalar agent path and on the batch struct-of-arrays
// engine, for every compiled algorithm, reporting ant-step throughput and the
// batch/scalar speedup. Both paths execute bit-identical replicates, so the
// comparison is apples to apples. With bb.out set the JSON records are also
// written to a file (the committed perf artifact); with bb.baseline set the
// run fails if any batch cell's ms/sweep regressed beyond bb.tolerance
// relative to the baseline records.
func runBatchBench(out io.Writer, bb batchBenchConfig) error {
	env, err := workload.Binary(bb.k, bb.good)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	var records []benchRecord

	// Ant-steps executed: every solved replicate ran its recorded rounds,
	// every unsolved one the full budget.
	stepsOf := func(pt experiment.ConvergencePoint) int {
		solvedRounds := int(pt.Rounds.Mean*float64(pt.Solved) + 0.5)
		return solvedRounds + (bb.reps-pt.Solved)*bb.maxRounds
	}
	sweep := func(c batchBenchCell) (totalRounds int, err error) {
		cfg := core.RunConfig{N: bb.n, Env: env, MaxRounds: bb.maxRounds, Wrap: c.wrap}
		pt, err := experiment.MeasureConvergence(c.algo, cfg, bb.reps, "batchbench")
		if err != nil {
			return 0, err
		}
		return stepsOf(pt), nil
	}
	// sweepObserved is sweep with streaming telemetry attached: per-round
	// census records flow through the lane rings into the collector while
	// the sweep runs, so its cost difference against sweep IS the telemetry
	// overhead.
	sweepObserved := func(c batchBenchCell) (totalRounds int, err error) {
		cfg := core.RunConfig{N: bb.n, Env: env, MaxRounds: bb.maxRounds, Wrap: c.wrap}
		pt, dist, err := experiment.MeasureConvergenceStreamed(c.algo, cfg, bb.reps, "batchbench")
		if err != nil {
			return 0, err
		}
		if !dist.Streamed {
			return 0, fmt.Errorf("observed cell %s fell back to the scalar path", c.name())
		}
		return stepsOf(pt), nil
	}

	measure := func(c batchBenchCell, engine string, batch bool, speedupOver float64, sweep func(batchBenchCell) (int, error)) (benchRecord, error) {
		experiment.SetBatchEngine(batch)
		if _, err := sweep(c); err != nil { // warm-up
			return benchRecord{}, err
		}
		var (
			elapsed time.Duration
			rounds  int
			iters   int
		)
		for elapsed < bb.minTime || iters == 0 {
			start := time.Now()
			r, err := sweep(c)
			if err != nil {
				return benchRecord{}, err
			}
			elapsed += time.Since(start)
			rounds += r
			iters++
		}
		perSweepMs := (elapsed / time.Duration(iters)).Seconds() * 1e3
		steps := float64(rounds) * float64(bb.n) / elapsed.Seconds()
		rec := benchRecord{
			Type: "BENCH", Engine: engine, Algorithm: c.name(),
			N: bb.n, K: bb.k, Reps: bb.reps,
			MsPerSweep: perSweepMs, AntStepsPerSec: steps,
		}
		if speedupOver > 0 {
			rec.Speedup = steps / speedupOver
		}
		records = append(records, rec)
		if bb.json {
			if err := enc.Encode(rec); err != nil {
				return benchRecord{}, err
			}
		} else {
			fmt.Fprintf(out, "%-16s %-9s %3d sweep(s) of %d x n=%d k=%d: %8.1f ms/sweep, %11.0f ant-steps/s\n",
				c.name(), engine, iters, bb.reps, bb.n, bb.k, perSweepMs, steps)
		}
		return rec, nil
	}

	if !bb.json {
		fmt.Fprintf(out, "replicate-sweep throughput, scalar agents vs batch engine\n\n")
	}
	defer experiment.SetBatchEngine(true)
	for _, c := range batchBenchCells() {
		scalar, err := measure(c, "scalar", false, 0, sweep)
		if err != nil {
			return err
		}
		batch, err := measure(c, "batch", true, scalar.AntStepsPerSec, sweep)
		if err != nil {
			return err
		}
		if !bb.json {
			fmt.Fprintf(out, "\n%s speedup: %.2fx\n\n", c.name(), batch.AntStepsPerSec/scalar.AntStepsPerSec)
		}
		// One cell times the streaming-telemetry observer against the bare
		// batch engine and gates its overhead; the lockstep path (simple) has
		// the cheapest rounds, so it is the worst case for relative overhead.
		if c.name() != "simple" {
			continue
		}
		obs, err := measure(c, "batch+obs", true, scalar.AntStepsPerSec, sweepObserved)
		if err != nil {
			return err
		}
		overhead := obs.MsPerSweep/batch.MsPerSweep - 1
		if !bb.json {
			fmt.Fprintf(out, "\n%s telemetry overhead: %+.1f%%\n\n", c.name(), overhead*100)
		}
		if bb.obsTolerance > 0 && overhead > bb.obsTolerance {
			return fmt.Errorf("streaming telemetry overhead %.1f%% exceeds the %.0f%% gate (batch %.1f ms/sweep, observed %.1f ms/sweep)",
				overhead*100, bb.obsTolerance*100, batch.MsPerSweep, obs.MsPerSweep)
		}
	}
	if bb.bigN > 0 {
		big, err := runBigCell(out, bb)
		if err != nil {
			return err
		}
		records = append(records, big...)
		if bb.json {
			for _, rec := range big {
				if err := enc.Encode(rec); err != nil {
					return err
				}
			}
		}
	}
	if bb.out != "" {
		if err := writeBenchRecords(bb.out, records); err != nil {
			return err
		}
	}
	if bb.baseline != "" {
		return compareBenchBaseline(out, bb, records)
	}
	return nil
}

// runBigCell times the large-colony configuration on the batch engine alone:
// one R=bigReps sweep of bigN-ant colonies (the cell ROADMAP item 1 asks
// for), then one single-replicate run per worker budget in bb.scaleWorkers.
// The scaling rows must all return bit-identical Results — lanes and shards
// partition work without reordering draws — so the row is a correctness check
// as much as a timing; elapsed times are reported as measured, which on a
// single-core host means a flat profile (the fan-out costs what it costs,
// honest numbers over flattering ones).
func runBigCell(out io.Writer, bb batchBenchConfig) ([]benchRecord, error) {
	env, err := workload.Binary(bb.bigK, bb.bigGood)
	if err != nil {
		return nil, err
	}
	a := algo.Simple{}
	cfg := core.RunConfig{N: bb.bigN, Env: env, MaxRounds: bb.maxRounds}
	sweep := func(cfg core.RunConfig, seeds []uint64) ([]core.Result, float64, int, error) {
		start := time.Now()
		res, ok, err := core.RunBatch(a, cfg, seeds)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("big cell: %w", err)
		}
		if !ok {
			return nil, 0, 0, fmt.Errorf("big cell: n=%d fell off the batch path", cfg.N)
		}
		rounds := 0
		for _, r := range res {
			rounds += r.Rounds
		}
		return res, time.Since(start).Seconds() * 1e3, rounds, nil
	}

	var records []benchRecord
	seeds := make([]uint64, bb.bigReps)
	for i := range seeds {
		seeds[i] = uint64(9000 + i)
	}
	_, ms, rounds, err := sweep(cfg, seeds)
	if err != nil {
		return nil, err
	}
	rec := benchRecord{
		Type: "BENCH", Engine: "batch", Algorithm: a.Name(),
		N: bb.bigN, K: bb.bigK, Reps: bb.bigReps,
		MsPerSweep: ms, AntStepsPerSec: float64(rounds) * float64(bb.bigN) / (ms / 1e3),
	}
	records = append(records, rec)
	if !bb.json {
		fmt.Fprintf(out, "%-16s %-9s   1 sweep(s) of %d x n=%d k=%d: %8.1f ms/sweep, %11.0f ant-steps/s\n",
			a.Name(), "batch", bb.bigReps, bb.bigN, bb.bigK, rec.MsPerSweep, rec.AntStepsPerSec)
	}

	// One untimed single-replicate warm-up: the first run after the sweep
	// pays heap growth and GC assists for its fresh lane columns, which
	// otherwise lands entirely on the first scaling row and skews the
	// comparison by ~3x.
	if len(bb.scaleWorkers) > 0 {
		wcfg := cfg
		wcfg.BatchWorkers = bb.scaleWorkers[0]
		if _, _, _, err := sweep(wcfg, seeds[:1]); err != nil {
			return nil, err
		}
	}
	var ref []core.Result
	for _, w := range bb.scaleWorkers {
		wcfg := cfg
		wcfg.BatchWorkers = w
		res, ms, rounds, err := sweep(wcfg, seeds[:1])
		if err != nil {
			return nil, err
		}
		if ref == nil {
			ref = res
		} else if !reflect.DeepEqual(res, ref) {
			return nil, fmt.Errorf("big cell: %d-worker run diverged from the 1-worker reference", w)
		}
		rec := benchRecord{
			Type: "BENCH", Engine: "batch", Algorithm: a.Name() + "+scale",
			N: bb.bigN, K: bb.bigK, Reps: 1, Workers: w,
			MsPerSweep: ms, AntStepsPerSec: float64(rounds) * float64(bb.bigN) / (ms / 1e3),
		}
		records = append(records, rec)
		if !bb.json {
			fmt.Fprintf(out, "%-16s %-9s workers=%d, 1 replicate of n=%d k=%d: %8.1f ms, %11.0f ant-steps/s\n",
				a.Name()+"+scale", "batch", w, bb.bigN, bb.bigK, rec.MsPerSweep, rec.AntStepsPerSec)
		}
	}
	return records, nil
}

// writeBenchRecords writes the BENCH records as JSON lines to path.
func writeBenchRecords(path string, records []benchRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing BENCH artifact: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, rec := range records {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return fmt.Errorf("writing BENCH artifact: %w", err)
		}
	}
	return f.Close()
}

// readBenchRecords parses a JSON-lines BENCH records file.
func readBenchRecords(path string) ([]benchRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("reading BENCH baseline: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	var records []benchRecord
	for dec.More() {
		var rec benchRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("reading BENCH baseline %s: %w", path, err)
		}
		records = append(records, rec)
	}
	return records, nil
}

// compareBenchBaseline is the perf regression gate: every batch cell present
// in both the baseline and the fresh run (matched on algorithm, n, k, reps)
// must not exceed the baseline ms/sweep by more than the tolerance. Scalar
// cells are informational — the scalar agent path is not the optimization
// target — and cells missing from either side are skipped (the inventory may
// grow), but a baseline whose batch cells ALL vanished is an error.
func compareBenchBaseline(out io.Writer, bb batchBenchConfig, fresh []benchRecord) error {
	base, err := readBenchRecords(bb.baseline)
	if err != nil {
		return err
	}
	key := func(r benchRecord) string {
		return fmt.Sprintf("%s|%s|%d|%d|%d|%d", r.Engine, r.Algorithm, r.N, r.K, r.Reps, r.Workers)
	}
	current := make(map[string]benchRecord, len(fresh))
	for _, r := range fresh {
		current[key(r)] = r
	}
	compared := 0
	regressed := 0
	for _, b := range base {
		if b.Engine != "batch" {
			continue
		}
		cur, ok := current[key(b)]
		if !ok {
			continue
		}
		compared++
		ratio := cur.MsPerSweep / b.MsPerSweep
		status := "ok"
		if ratio > 1+bb.tolerance {
			status = "REGRESSED"
			regressed++
		}
		fmt.Fprintf(out, "baseline %-30s %8.1f -> %8.1f ms/sweep (%+.1f%%) %s\n",
			b.Algorithm, b.MsPerSweep, cur.MsPerSweep, (ratio-1)*100, status)
	}
	if compared == 0 {
		return fmt.Errorf("baseline %s shares no batch cells with this run", bb.baseline)
	}
	if regressed > 0 {
		return fmt.Errorf("%d batch cell(s) regressed more than %.0f%% vs %s", regressed, bb.tolerance*100, bb.baseline)
	}
	fmt.Fprintf(out, "baseline check passed: %d batch cell(s) within %.0f%% of %s\n", compared, bb.tolerance*100, bb.baseline)
	return nil
}
