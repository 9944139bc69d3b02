// Package trace records per-round execution histories of house-hunting runs:
// one row per round with the nest populations and the commitment census.
// Both engines produce the same rows for the same seed — core.Run on the
// scalar engine, and sim.TraceObserver, which core.RunBatch attaches for
// cfg.Trace, on the batch engine. Traces power the small-nest extinction
// experiment (`go run ./cmd/hhbench -exp E8`), the facade's WithTracing, the
// ASCII plots in the CLI tools and several integration-test oracles. The
// package also carries the streaming side of telemetry: CSV/JSON writers
// that emit rows as they arrive, and the lane rings and collector that move
// batch-lane records to a sink.
//
// The package is pure data: it does not know about the engine or the agents.
// The engine and runners push observations in; exporters (CSV, JSON, ASCII)
// pull them out.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Round is the per-round record: populations by nest (index 0 = home) and an
// optional commitment census by nest.
type Round struct {
	Round       int   `json:"round"`
	Populations []int `json:"populations"`
	Commitments []int `json:"commitments,omitempty"`
}

// Trace accumulates the rounds of one execution.
//
// Construct with New. RecordRound copies its slice arguments, so the engine
// may reuse buffers between rounds.
type Trace struct {
	numNests int // candidate nests (excluding home)
	rounds   []Round
}

// New creates a Trace for an environment with numNests candidate nests.
func New(numNests int) *Trace {
	return &Trace{numNests: numNests}
}

// NumNests returns the number of candidate nests the trace was built for.
func (t *Trace) NumNests() int { return t.numNests }

// RecordRound appends a round record. populations must have length
// numNests+1 (home plus candidates); commitments may be nil or length
// numNests+1. Both are copied.
func (t *Trace) RecordRound(round int, populations, commitments []int) error {
	if len(populations) != t.numNests+1 {
		return fmt.Errorf("trace: populations length %d, want %d", len(populations), t.numNests+1)
	}
	rec := Round{Round: round, Populations: append([]int(nil), populations...)}
	if commitments != nil {
		if len(commitments) != t.numNests+1 {
			return fmt.Errorf("trace: commitments length %d, want %d", len(commitments), t.numNests+1)
		}
		rec.Commitments = append([]int(nil), commitments...)
	}
	t.rounds = append(t.rounds, rec)
	return nil
}

// Len returns the number of recorded rounds.
func (t *Trace) Len() int { return len(t.rounds) }

// Rounds returns the recorded rounds. The returned slice is the internal
// backing array; callers must treat it as read-only.
func (t *Trace) Rounds() []Round { return t.rounds }

// PopulationSeries returns nest's population trajectory across recorded
// rounds (nest 0 = home).
func (t *Trace) PopulationSeries(nest int) ([]float64, error) {
	if nest < 0 || nest > t.numNests {
		return nil, fmt.Errorf("trace: nest %d out of range [0,%d]", nest, t.numNests)
	}
	out := make([]float64, len(t.rounds))
	for i, r := range t.rounds {
		out[i] = float64(r.Populations[nest])
	}
	return out, nil
}

// CommitmentSeries returns nest's commitment trajectory; rounds without a
// commitment census yield 0.
func (t *Trace) CommitmentSeries(nest int) ([]float64, error) {
	if nest < 0 || nest > t.numNests {
		return nil, fmt.Errorf("trace: nest %d out of range [0,%d]", nest, t.numNests)
	}
	out := make([]float64, len(t.rounds))
	for i, r := range t.rounds {
		if r.Commitments != nil {
			out[i] = float64(r.Commitments[nest])
		}
	}
	return out, nil
}

// WriteCSV writes the per-round populations (and commitments when present)
// as CSV: round,pop0..popK[,com0..comK]. Rows stream through a CSVWriter —
// each row is flushed as it is produced with errors reported against the
// failing round, and nothing beyond one row is buffered.
func (t *Trace) WriteCSV(w io.Writer) error {
	hasCommit := false
	for _, r := range t.rounds {
		if r.Commitments != nil {
			hasCommit = true
			break
		}
	}
	cw := NewCSVWriter(w, t.numNests, hasCommit)
	for _, r := range t.rounds {
		if err := cw.WriteRound(r); err != nil {
			return err
		}
	}
	return cw.Close()
}

// jsonDoc is the on-wire JSON layout of a trace.
type jsonDoc struct {
	NumNests int     `json:"num_nests"`
	Rounds   []Round `json:"rounds"`
}

// WriteJSON writes the full trace as a single JSON document, streaming each
// round through a JSONWriter rather than encoding the whole trace at once.
// The output is byte-identical to the historical one-shot encoding of
// jsonDoc.
func (t *Trace) WriteJSON(w io.Writer) error {
	jw := NewJSONWriter(w, t.numNests)
	for _, r := range t.rounds {
		if err := jw.WriteRound(r); err != nil {
			return err
		}
	}
	return jw.Close()
}

// ReadJSON parses a trace previously written by WriteJSON. Round shapes are
// validated against num_nests on decode, so a truncated or hand-edited
// document fails here instead of panicking later in PopulationSeries.
func ReadJSON(r io.Reader) (*Trace, error) {
	var doc jsonDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("trace: decoding JSON: %w", err)
	}
	if doc.NumNests < 0 {
		return nil, fmt.Errorf("trace: decoding JSON: num_nests %d is negative", doc.NumNests)
	}
	want := doc.NumNests + 1
	for _, rd := range doc.Rounds {
		if len(rd.Populations) != want {
			return nil, fmt.Errorf("trace: decoding JSON: round %d populations length %d, want %d", rd.Round, len(rd.Populations), want)
		}
		if rd.Commitments != nil && len(rd.Commitments) != want {
			return nil, fmt.Errorf("trace: decoding JSON: round %d commitments length %d, want %d", rd.Round, len(rd.Commitments), want)
		}
	}
	t := New(doc.NumNests)
	t.rounds = doc.Rounds
	return t, nil
}
