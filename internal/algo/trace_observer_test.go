package algo

import (
	"reflect"
	"testing"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/trace"
)

// TestTraceObserverMatchesRunTraced pins batch-native tracing against the
// scalar reference on the differential harness's representative cells — the
// lockstep path, the general path, static fault lanes and an adaptive
// schedule: a batch run observed by sim.TraceObserver records exactly the
// rows core.RunTraced records for the same seed, and its BatchResults
// deep-equal an unobserved run's. The observed runs carry every seed of the
// cell, so the trace also proves that only replicate 0 is recorded.
func TestTraceObserverMatchesRunTraced(t *testing.T) {
	cells := map[string]bool{
		"simple/n128/k4":            true, // lockstep
		"optimal/n96/k4":            true, // general
		"optimal+mixed/n96/k5":      true, // crash + Byzantine + sleep lanes
		"simple+sched-churn/n64/k4": true, // adaptive schedule with restarts
	}
	for _, c := range pinnedDiffCases() {
		if !cells[c.name] {
			continue
		}
		delete(cells, c.name)
		c := c
		t.Run(c.name, func(t *testing.T) {
			const window = 2
			k := c.env.K()
			cfg := core.RunConfig{N: c.n, Env: c.env, MaxRounds: c.maxRounds, StabilityWindow: window, Seed: c.seeds[0]}
			if spec := c.spec(); spec.Enabled() {
				cfg.Wrap = spec
			}
			prog, ok, reason := core.CompileForBatch(c.algo, cfg)
			if !ok {
				t.Fatalf("not batch-eligible: %s", reason)
			}

			tr := trace.New(k)
			obs, err := sim.NewTraceObserver(tr, k)
			if err != nil {
				t.Fatal(err)
			}
			run := func(opts ...sim.BatchOption) []sim.BatchResult {
				b, err := sim.NewBatch(c.env, prog, c.n, opts...)
				if err != nil {
					t.Fatal(err)
				}
				res, err := b.Run(c.seeds, c.maxRounds, window)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			plain := run()
			observed := run(sim.WithBatchObserver(obs))
			if !reflect.DeepEqual(plain, observed) {
				t.Fatalf("observed run diverged from unobserved run:\nplain:    %+v\nobserved: %+v", plain, observed)
			}

			cfg.Trace = trace.New(k)
			ref, err := core.RunTraced(c.algo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Rounds != observed[0].Rounds {
				t.Fatalf("scalar ran %d rounds, batch %d", ref.Rounds, observed[0].Rounds)
			}
			got, want := tr.Rounds(), cfg.Trace.Rounds()
			if len(got) != len(want) {
				t.Fatalf("batch trace has %d rows, core.RunTraced %d", len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("trace row %d diverged from core.RunTraced:\nbatch:  %+v\nscalar: %+v", i, got[i], want[i])
				}
			}
		})
	}
	for name := range cells {
		t.Errorf("cell %s is missing from the pinned grid", name)
	}
}
