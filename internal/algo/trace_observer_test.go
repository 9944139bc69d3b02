package algo

import (
	"reflect"
	"testing"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/trace"
)

// TestTraceObserverMatchesRunTraced pins batch-native tracing against the
// scalar reference, a traced core.Run, on the differential harness's
// representative cells — the lockstep path, the general path, static fault
// lanes and an adaptive schedule: a batch run observed by sim.TraceObserver
// records exactly the rows core.Run records into cfg.Trace for the same
// seed, and its BatchResults deep-equal an unobserved run's. The observed
// runs carry every seed of the cell, so the trace also proves that only
// replicate 0 is recorded. core.RunBatch given the same cfg.Trace records
// the same rows and returns the same result as core.Run.
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

			scalarCfg := cfg
			scalarCfg.Trace = trace.New(k)
			ref, err := core.Run(c.algo, scalarCfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Rounds != observed[0].Rounds {
				t.Fatalf("scalar ran %d rounds, batch %d", ref.Rounds, observed[0].Rounds)
			}
			want := scalarCfg.Trace.Rounds()
			batchCfg := cfg
			batchCfg.Trace = trace.New(k)
			batched, ok, err := core.RunBatch(c.algo, batchCfg, []uint64{cfg.Seed})
			if err != nil || !ok {
				t.Fatalf("traced core.RunBatch: ok=%v err=%v", ok, err)
			}
			if !reflect.DeepEqual(batched[0], ref) {
				t.Fatalf("traced core.RunBatch result diverged from core.Run:\nbatch:  %+v\nscalar: %+v", batched[0], ref)
			}
			for _, got := range []struct {
				name string
				rows []trace.Round
			}{{"sim.TraceObserver", tr.Rounds()}, {"core.RunBatch", batchCfg.Trace.Rounds()}} {
				if len(got.rows) != len(want) {
					t.Fatalf("%s trace has %d rows, core.Run %d", got.name, len(got.rows), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got.rows[i], want[i]) {
						t.Fatalf("%s trace row %d diverged from core.Run:\nbatch:  %+v\nscalar: %+v", got.name, i, got.rows[i], want[i])
					}
				}
			}
		})
	}
	for name := range cells {
		t.Errorf("cell %s is missing from the pinned grid", name)
	}
}
