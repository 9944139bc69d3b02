package househunt

import (
	"fmt"
	"io"
	"strings"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/trace"
)

// RoundSnapshot is one round of a traced execution: populations and committed
// ants per nest (index 0 is the home nest).
type RoundSnapshot struct {
	Round       int
	Populations []int
	Commitments []int
}

// Result reports one colony execution.
type Result struct {
	// Solved is true when the colony converged within the round budget.
	Solved bool
	// Winner is the unanimously chosen nest (1-based; 0 when unsolved).
	Winner int
	// WinnerQuality is the chosen nest's quality.
	WinnerQuality float64
	// Rounds is the round of convergence (or the rounds executed when
	// unsolved).
	Rounds int
	// Algorithm is the algorithm that ran.
	Algorithm string
	// Commitments is the final per-nest commitment census (index 0 counts
	// uncommitted ants).
	Commitments []int
	// FaultyAnts counts ants excluded from the census by fault injection.
	FaultyAnts int
	// Engine names the engine that ran the colony: "batch" or "scalar".
	Engine string
	// EngineReason says why the batch engine declined the colony (for
	// example, that WithJitter's agent wrapper is scalar-only); empty when
	// the batch engine ran.
	EngineReason string

	tr *trace.Trace
}

// The Result.Engine values.
const (
	engineBatch  = "batch"
	engineScalar = "scalar"
)

// newResult converts the internal result (and optional trace) to the public
// shape.
func newResult(res core.Result, tr *trace.Trace, engine, reason string) *Result {
	return &Result{
		Solved:        res.Solved,
		Winner:        int(res.Winner),
		WinnerQuality: res.WinnerQuality,
		Rounds:        res.Rounds,
		Algorithm:     res.Algorithm,
		Commitments:   append([]int(nil), res.FinalCensus.Committed...),
		FaultyAnts:    res.FinalCensus.Faulty,
		Engine:        engine,
		EngineReason:  reason,
		tr:            tr,
	}
}

// Traced reports whether the run recorded a history.
func (r *Result) Traced() bool { return r.tr != nil }

// History returns the per-round snapshots of a traced run (nil otherwise).
func (r *Result) History() []RoundSnapshot {
	if r.tr == nil {
		return nil
	}
	rounds := r.tr.Rounds()
	out := make([]RoundSnapshot, len(rounds))
	for i, rec := range rounds {
		out[i] = RoundSnapshot{
			Round:       rec.Round,
			Populations: append([]int(nil), rec.Populations...),
			Commitments: append([]int(nil), rec.Commitments...),
		}
	}
	return out
}

// WriteCSV exports the traced history as CSV. It fails on untraced runs.
func (r *Result) WriteCSV(w io.Writer) error {
	if r.tr == nil {
		return fmt.Errorf("househunt: run was not traced; use WithTracing")
	}
	return r.tr.WriteCSV(w)
}

// WriteJSON exports the traced history as JSON. It fails on untraced runs.
func (r *Result) WriteJSON(w io.Writer) error {
	if r.tr == nil {
		return fmt.Errorf("househunt: run was not traced; use WithTracing")
	}
	return r.tr.WriteJSON(w)
}

// RenderPlot draws the traced commitment dynamics as an ASCII chart (empty
// string on untraced runs). Width and height <= 0 select defaults.
func (r *Result) RenderPlot(width, height int) string {
	if r.tr == nil {
		return ""
	}
	return r.tr.RenderPlot(trace.PlotOptions{Width: width, Height: height, Commitments: true})
}

// RenderPopulationPlot draws the physical nest populations instead of the
// commitment census (empty string on untraced runs).
func (r *Result) RenderPopulationPlot(width, height int) string {
	if r.tr == nil {
		return ""
	}
	return r.tr.RenderPlot(trace.PlotOptions{Width: width, Height: height})
}

// Summary renders a one-paragraph human-readable report.
func (r *Result) Summary() string {
	var b strings.Builder
	if r.Solved {
		fmt.Fprintf(&b, "solved: colony converged on nest %d (quality %.2f) at round %d using %s",
			r.Winner, r.WinnerQuality, r.Rounds, r.Algorithm)
	} else {
		fmt.Fprintf(&b, "unsolved: no convergence within %d rounds using %s", r.Rounds, r.Algorithm)
	}
	if r.FaultyAnts > 0 {
		fmt.Fprintf(&b, " (%d faulty ants excluded)", r.FaultyAnts)
	}
	return b.String()
}
