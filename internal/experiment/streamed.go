package experiment

import (
	"fmt"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/stats"
	"github.com/gmrl/househunt/internal/trace"
)

// DefaultSketchAlpha is the relative accuracy of the convergence-time
// quantile sketch: any streamed quantile is within 1% of a sample value.
const DefaultSketchAlpha = 0.01

// streamRingSlots sizes each lane's telemetry ring. 256 rounds of slack per
// lane keeps the engine from ever blocking on the collector in practice
// while costing ~2·(k+1)·4·256 bytes per worker.
const streamRingSlots = 256

// StreamedDistributions holds the online statistics a streamed measurement
// folds as rounds complete — full convergence-time distributions out of a
// sweep with no post-hoc replay, which is what the paper's
// with-high-probability claims need (a mean cannot witness a tail bound).
type StreamedDistributions struct {
	// Rounds accumulates convergence rounds over the solved reps (Welford
	// moments: mean/variance/min/max stream exactly).
	Rounds stats.Welford
	// RoundsQ sketches the same observations for quantile queries within
	// DefaultSketchAlpha relative error; sketches from sharded sweeps merge
	// exactly (see stats.QuantileSketch).
	RoundsQ *stats.QuantileSketch
	// Quality accumulates q(winner) over the solved reps.
	Quality stats.Welford
	// RoundsObserved counts the per-round records folded: the sum of every
	// replicate's executed rounds. On the batch path each executed round
	// streamed one census record through the lane rings.
	RoundsObserved uint64
	// Streamed reports the source: true when the statistics were folded from
	// the batch engine's ring-buffer telemetry as rounds completed, false
	// when the cell was batch-ineligible and they were folded from the
	// scalar fallback's results.
	Streamed bool
}

// foldSink folds collector records into StreamedDistributions. All calls
// arrive on the single collector goroutine, so it needs no locking; results
// are read only after Collector.Close. It allocates nothing per record.
type foldSink struct {
	qual []float64 // quality by nest id (index 0 = home)
	d    *StreamedDistributions
}

func (s *foldSink) Record(_ int, _, round int32, row []int32) {
	if round != sim.StreamEndRound {
		s.d.RoundsObserved++
		return
	}
	solved, rounds, winner, _ := sim.DecodeStreamEnd(row)
	if !solved {
		return
	}
	s.d.Rounds.Add(float64(rounds))
	s.d.RoundsQ.Add(float64(rounds))
	s.d.Quality.Add(s.qual[winner])
}

// MeasureConvergenceStreamed is MeasureConvergence with streaming telemetry:
// on the batch path it attaches a sim.StreamObserver, so per-round census
// records flow through per-lane ring buffers into a collector goroutine that
// folds the distributions online while the sweep runs. The ConvergencePoint
// is identical to MeasureConvergence's (observation is draw-free); the
// distributions additionally carry exact streaming moments and a quantile
// sketch over convergence times.
//
// Cells the batch engine declines (see core.CompileForBatch) fall back to
// the scalar loop and fold the same distributions from its results, so the
// API is total; Streamed reports which path ran.
func MeasureConvergenceStreamed(algo core.Algorithm, cfg core.RunConfig, reps int, tag string) (ConvergencePoint, *StreamedDistributions, error) {
	if err := validateMeasurement(algo, cfg, reps); err != nil {
		return ConvergencePoint{}, nil, err
	}
	seeds := convergenceSeeds(cfg, reps, tag)
	dist := newDistributions()
	runs, ok, err := runBatchStreamed(algo, cfg, seeds, dist)
	if err != nil {
		return ConvergencePoint{}, nil, err
	}
	if ok {
		dist.Streamed = true
		return aggregatePoint(algo, cfg, runs), dist, nil
	}
	if runs, err = runScalarReps(algo, cfg, seeds); err != nil {
		return ConvergencePoint{}, nil, err
	}
	return aggregatePoint(algo, cfg, runs), foldRuns(runs), nil
}

// newDistributions returns empty distributions with the default sketch.
func newDistributions() *StreamedDistributions {
	return &StreamedDistributions{RoundsQ: stats.MustQuantileSketch(DefaultSketchAlpha)}
}

// foldRuns is the scalar fallback's fold: the statistics the batch path
// streams, folded from finished per-replicate results instead.
func foldRuns(runs []core.Result) *StreamedDistributions {
	dist := newDistributions()
	for _, res := range runs {
		dist.RoundsObserved += uint64(res.Rounds)
		if res.Solved {
			dist.Rounds.Add(float64(res.Rounds))
			dist.RoundsQ.Add(float64(res.Rounds))
			dist.Quality.Add(res.WinnerQuality)
		}
	}
	return dist
}

// runBatchStreamed wires collector → observer → batch engine for one cell.
// The boolean mirrors core.RunBatchObserved's eligibility.
func runBatchStreamed(algo core.Algorithm, cfg core.RunConfig, seeds []uint64, dist *StreamedDistributions) ([]core.Result, bool, error) {
	k := cfg.Env.K()
	if k == 0 {
		return nil, false, nil // ineligible; the scalar path reports the error
	}
	coll, err := trace.NewCollector(sim.StreamRowWidth(k), streamRingSlots, &foldSink{qual: cfg.Env.Qualities(), d: dist})
	if err != nil {
		return nil, false, fmt.Errorf("experiment: building telemetry collector: %w", err)
	}
	defer coll.Close()
	obs, err := sim.NewStreamObserver(coll, k)
	if err != nil {
		return nil, false, fmt.Errorf("experiment: building stream observer: %w", err)
	}
	runs, ok, err := core.RunBatchObserved(algo, cfg, seeds, obs)
	if err != nil {
		return nil, false, fmt.Errorf("experiment: streamed batch sweep: %w", err)
	}
	if !ok {
		return nil, false, nil
	}
	coll.Close() // drain the tail before the caller reads dist
	return runs, true, nil
}
