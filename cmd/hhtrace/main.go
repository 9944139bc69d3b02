// Command hhtrace runs a traced house-hunting execution and exports the
// per-round history as CSV or JSON, for plotting population dynamics with
// external tools.
//
// Examples:
//
//	hhtrace -n 512 -k 4 -good 2 -algo simple -format csv > run.csv
//	hhtrace -n 512 -k 4 -good 4 -algo optimal -format json > run.json
//
// With -live the tool tails a running batch sweep instead of replaying one
// colony: -reps replicates run on the batch engine with a streaming telemetry
// observer attached, and per-round census records are written as CSV the
// moment the collector drains them from the worker lanes — long before the
// sweep finishes. A distribution summary (streamed Welford moments plus a
// quantile sketch over convergence times) lands on stderr at the end:
//
//	hhtrace -live -reps 64 -n 512 -k 4 -good 2 -algo simple > sweep.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/gmrl/househunt"
	"github.com/gmrl/househunt/internal/algo"
	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/experiment"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/stats"
	"github.com/gmrl/househunt/internal/trace"
	"github.com/gmrl/househunt/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hhtrace:", err)
		os.Exit(1)
	}
}

// run executes one traced colony (or a live sweep) and exports it; split for
// testability.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hhtrace", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 256, "colony size")
		k        = fs.Int("k", 4, "number of candidate nests")
		good     = fs.Int("good", 1, "number of good nests")
		algoName = fs.String("algo", "simple", "algorithm name")
		seed     = fs.Uint64("seed", 1, "random seed (replicate i of a -live sweep uses seed+i)")
		rounds   = fs.Int("rounds", 0, "round budget (0 = automatic)")
		format   = fs.String("format", "csv", "output format: csv or json (-live supports csv only)")
		live     = fs.Bool("live", false, "tail a batch sweep: stream per-round census records as they arrive instead of replaying one colony")
		reps     = fs.Int("reps", 16, "replicates for a -live sweep")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *live {
		return runLive(*n, *k, *good, *algoName, *format, *seed, *rounds, *reps, out)
	}

	res, err := househunt.Run(
		househunt.WithColonySize(*n),
		househunt.WithBinaryNests(*k, *good),
		househunt.WithAlgorithm(househunt.Algorithm(*algoName)),
		househunt.WithSeed(*seed),
		househunt.WithMaxRounds(*rounds),
		househunt.WithTracing(),
	)
	if err != nil {
		return err
	}
	switch *format {
	case "csv":
		if err := res.WriteCSV(out); err != nil {
			return err
		}
	case "json":
		if err := res.WriteJSON(out); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown format %q (want csv or json)", *format)
	}
	fmt.Fprintln(os.Stderr, res.Summary())
	fmt.Fprintln(os.Stderr, engineLine(res))
	return nil
}

// engineLine reports which engine ran and, for the scalar fallback, why the
// batch engine declined.
func engineLine(res *househunt.Result) string {
	if res.EngineReason == "" {
		return "engine: " + res.Engine
	}
	return fmt.Sprintf("engine: %s (%s)", res.Engine, res.EngineReason)
}

// liveAlgorithm maps -algo names to batch-compilable algorithms with the
// library's default parameters — the same inventory hhsim lists.
func liveAlgorithm(name string) (core.Algorithm, error) {
	switch name {
	case "simple":
		return algo.Simple{}, nil
	case "optimal":
		return algo.Optimal{}, nil
	case "optimal-literal":
		return algo.Optimal{Literal: true}, nil
	case "adaptive":
		return algo.Adaptive{}, nil
	case "quality":
		return algo.QualityAware{}, nil
	case "quorum":
		return algo.Quorum{}, nil
	case "approxn":
		return algo.ApproxN{}, nil
	case "spreader":
		return algo.Spreader{}, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q (want optimal, optimal-literal, simple, adaptive, quality, quorum, approxn or spreader)", name)
}

// liveSink writes each drained record as one CSV row and folds the
// replicate-end records into streamed distribution statistics. All calls
// arrive on the single collector goroutine; results are read after
// Collector.Close.
type liveSink struct {
	w    *bufio.Writer
	k    int
	qual []float64 // quality by nest id (index 0 = home)
	err  error     // first write error; subsequent records are dropped

	reps    int
	solved  int
	rounds  stats.Welford
	quality stats.Welford
	roundsQ *stats.QuantileSketch
}

func (s *liveSink) Record(_ int, rep, round int32, row []int32) {
	if round == sim.StreamEndRound {
		solved, rounds, winner, _ := sim.DecodeStreamEnd(row)
		s.reps++
		if solved {
			s.solved++
			s.rounds.Add(float64(rounds))
			s.roundsQ.Add(float64(rounds))
			s.quality.Add(s.qual[winner])
		}
		return
	}
	if s.err != nil {
		return
	}
	if _, err := fmt.Fprintf(s.w, "%d,%d", rep, round); err != nil {
		s.err = err
		return
	}
	for _, v := range row {
		if _, err := fmt.Fprintf(s.w, ",%d", v); err != nil {
			s.err = err
			return
		}
	}
	if err := s.w.WriteByte('\n'); err != nil {
		s.err = err
	}
}

// runLive streams a batch sweep: collector → observer → batch engine, with
// the sink above emitting CSV rows as the collector drains the lane rings.
func runLive(n, k, good int, algoName, format string, seed uint64, rounds, reps int, out io.Writer) error {
	if format != "csv" {
		return fmt.Errorf("live mode streams csv only, got -format %q", format)
	}
	if reps <= 0 {
		return fmt.Errorf("live mode needs -reps > 0, got %d", reps)
	}
	a, err := liveAlgorithm(algoName)
	if err != nil {
		return err
	}
	env, err := workload.Binary(k, good)
	if err != nil {
		return err
	}
	cfg := core.RunConfig{N: n, Env: env, MaxRounds: rounds}
	if _, ok, reason := core.CompileForBatch(a, cfg); !ok {
		return fmt.Errorf("config is not batch-eligible (%s); live mode streams from the batch engine", reason)
	}

	// Header and writer are set up before the sweep starts; from then on only
	// the collector goroutine writes, until Close drains the final records.
	w := bufio.NewWriter(out)
	if _, err := fmt.Fprint(w, "rep,round"); err != nil {
		return err
	}
	for i := 0; i <= k; i++ {
		fmt.Fprintf(w, ",pop%d", i)
	}
	for i := 0; i <= k; i++ {
		fmt.Fprintf(w, ",committed%d", i)
	}
	if err := w.WriteByte('\n'); err != nil {
		return err
	}

	sink := &liveSink{w: w, k: k, qual: env.Qualities(), roundsQ: stats.MustQuantileSketch(experiment.DefaultSketchAlpha)}
	coll, err := trace.NewCollector(sim.StreamRowWidth(k), 256, sink)
	if err != nil {
		return err
	}
	defer coll.Close()
	obs, err := sim.NewStreamObserver(coll, k)
	if err != nil {
		return err
	}

	seeds := make([]uint64, reps)
	for i := range seeds {
		seeds[i] = seed + uint64(i)
	}
	if _, ok, err := core.RunBatchObserved(a, cfg, seeds, obs); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("batch engine declined a config that passed eligibility — this is a bug")
	}
	coll.Close() // drain the tail before flushing and summarizing
	if sink.err != nil {
		return fmt.Errorf("writing stream: %w", sink.err)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "live sweep: algo=%s n=%d k=%d good=%d solved=%d/%d (%.1f%%)\n",
		a.Name(), n, k, good, sink.solved, sink.reps, 100*float64(sink.solved)/float64(reps))
	if sink.solved > 0 {
		lo, hi := sink.rounds.CI95()
		fmt.Fprintf(os.Stderr, "rounds: mean %.1f (95%% CI %.1f–%.1f), min %.0f, max %.0f, p50 %.0f, p90 %.0f, p99 %.0f (sketch ±%.1f%%)\n",
			sink.rounds.Mean(), lo, hi, sink.rounds.Min(), sink.rounds.Max(),
			sink.roundsQ.Quantile(0.5), sink.roundsQ.Quantile(0.9), sink.roundsQ.Quantile(0.99),
			100*sink.roundsQ.Alpha())
		fmt.Fprintf(os.Stderr, "winner quality: mean %.3f\n", sink.quality.Mean())
	}
	return nil
}
