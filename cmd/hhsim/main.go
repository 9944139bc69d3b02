// Command hhsim runs a single house-hunting execution and prints a summary,
// optionally with an ASCII plot of the commitment dynamics.
//
// Examples:
//
//	hhsim -n 512 -k 8 -good 2 -algo simple -seed 42
//	hhsim -n 1024 -k 4 -good 4 -algo optimal -plot
//	hhsim -n 256 -nests 0.2,0.5,0.9 -algo quality -plot
//	hhsim -n 400 -k 4 -good 2 -crash 0.1 -jitter 0.1
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/gmrl/househunt"
	"github.com/gmrl/househunt/internal/faults"
)

// errInvalidFaultFlags names the flag-validation failure for fault plans: any
// -crash/-byz/-sleep/-crash-window/-sleep-window combination the fault spec
// itself would reject (negative fractions, fractions summing past 1, negative
// windows) fails here, at flag-parse time, instead of surfacing later as an
// engine construction error.
var errInvalidFaultFlags = errors.New("invalid fault flags")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hhsim:", err)
		os.Exit(1)
	}
}

// run parses flags and executes one colony; split from main for testability.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hhsim", flag.ContinueOnError)
	var (
		n          = fs.Int("n", 256, "colony size")
		k          = fs.Int("k", 4, "number of candidate nests (ignored when -nests is set)")
		good       = fs.Int("good", 1, "number of good nests (ignored when -nests is set)")
		nests      = fs.String("nests", "", "comma-separated nest qualities in [0,1], e.g. 0.2,0.5,0.9")
		algoName   = fs.String("algo", "simple", "algorithm: optimal, optimal-literal, simple, adaptive, quality, quorum, approxn, spreader")
		seed       = fs.Uint64("seed", 1, "random seed")
		maxRounds  = fs.Int("rounds", 0, "round budget (0 = automatic)")
		plot       = fs.Bool("plot", false, "render an ASCII plot of commitment dynamics")
		countNoise = fs.Float64("count-noise", 0, "unbiased relative count noise sigma (forces simple)")
		flipP      = fs.Float64("flip", 0, "assessment flip probability (forces simple)")
		crash      = fs.Float64("crash", 0, "fraction of ants that crash")
		crashWin   = fs.Int("crash-window", 64, "last round by which scheduled crashes fire")
		byz        = fs.Float64("byz", 0, "fraction of Byzantine ants")
		sleep      = fs.Float64("sleep", 0, "fraction of ants starting as an idle reserve")
		sleepWin   = fs.Int("sleep-window", 64, "last round by which the idle reserve wakes")
		jitter     = fs.Float64("jitter", 0, "per-round hold probability (asynchrony)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Validate the fault plan exactly as the engines will: the assembled spec
	// must pass the same Validate both lowering paths run, so a bad flag
	// combination dies here with the named error instead of deep in setup.
	faultPlan := faults.Spec{
		CrashFraction: *crash, CrashWindow: *crashWin,
		ByzantineFraction: *byz,
		SleepFraction:     *sleep, SleepWindow: *sleepWin,
	}
	if err := faultPlan.Validate(); err != nil {
		return fmt.Errorf("%w: %v", errInvalidFaultFlags, err)
	}

	opts := []househunt.Option{
		househunt.WithColonySize(*n),
		househunt.WithAlgorithm(househunt.Algorithm(*algoName)),
		househunt.WithSeed(*seed),
		househunt.WithMaxRounds(*maxRounds),
	}
	if *nests != "" {
		qualities, err := parseQualities(*nests)
		if err != nil {
			return err
		}
		opts = append(opts, househunt.WithNests(qualities...))
	} else {
		opts = append(opts, househunt.WithBinaryNests(*k, *good))
	}
	if *plot {
		opts = append(opts, househunt.WithTracing())
	}
	// A float flag reaches its option whenever it is set, so the option
	// rejects a negative or NaN value instead of the run silently dropping it.
	if *countNoise != 0 {
		opts = append(opts, househunt.WithCountNoise(*countNoise))
	}
	if *flipP != 0 {
		opts = append(opts, househunt.WithAssessmentFlips(*flipP))
	}
	if *crash != 0 {
		opts = append(opts, househunt.WithCrashFaults(*crash, *crashWin))
	}
	if *byz != 0 {
		opts = append(opts, househunt.WithByzantineAnts(*byz))
	}
	if *sleep != 0 {
		opts = append(opts, househunt.WithIdleAnts(*sleep, *sleepWin))
	}
	if *jitter != 0 {
		opts = append(opts, househunt.WithJitter(*jitter, 2))
	}

	res, err := househunt.Run(opts...)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, res.Summary())
	fmt.Fprintln(out, engineLine(res))
	fmt.Fprintf(out, "final commitments by nest: %v\n", res.Commitments)
	if *plot {
		fmt.Fprint(out, res.RenderPlot(72, 16))
	}
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

// parseQualities parses "0.2,0.5,0.9" into a quality slice.
func parseQualities(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		q, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing nest quality %q: %w", p, err)
		}
		out = append(out, q)
	}
	return out, nil
}
