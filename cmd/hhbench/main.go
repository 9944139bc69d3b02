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
//	hhbench -exp E9 -cpuprofile cpu.prof   (profile any run's hot path)
//
// Throughput is measured by the repository benchmark, bench/ (see
// bench/README.md), not by this command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/gmrl/househunt/internal/experiment"
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
