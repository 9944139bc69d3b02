// Package trace records per-round execution histories of house-hunting runs:
// nest populations, commitment censuses, state censuses, and discrete events
// (recruitments, drop-outs, finalizations). Traces power the population-
// dynamics experiments (`go run ./cmd/hhbench -exp <id>`), the ASCII plots in
// the CLI tools, and several integration-test oracles.
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

// EventKind labels a discrete event. Starting at 1 keeps the zero value
// invalid, per house style.
type EventKind int

// Event kinds recorded by the engine and runners.
const (
	// EventRecruitSuccess is recorded when an active recruiter captures
	// another ant in the round's matching.
	EventRecruitSuccess EventKind = iota + 1
	// EventSelfRecruit is recorded when the matcher pairs an ant with itself
	// (possible when it draws itself from the recruiting pool).
	EventSelfRecruit
	// EventNestDropout is recorded by Algorithm 2 runners when a competing
	// nest's population decreases and its ants turn passive.
	EventNestDropout
	// EventFinalize is recorded when an ant enters the final state.
	EventFinalize
	// EventCrash is recorded by the fault injector when an ant crashes.
	EventCrash
	// EventByzantineAct is recorded when a Byzantine ant deviates.
	EventByzantineAct
	// EventQuorumReached is recorded when a nest's population first crosses a
	// quorum threshold (used by quorum-flavoured extensions and examples).
	EventQuorumReached
)

// String returns the event kind's wire name.
func (k EventKind) String() string {
	switch k {
	case EventRecruitSuccess:
		return "recruit_success"
	case EventSelfRecruit:
		return "self_recruit"
	case EventNestDropout:
		return "nest_dropout"
	case EventFinalize:
		return "finalize"
	case EventCrash:
		return "crash"
	case EventByzantineAct:
		return "byzantine_act"
	case EventQuorumReached:
		return "quorum_reached"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one discrete occurrence at a round. Subject and Object are ant
// indices (Object may be -1 when not applicable); Nest is a nest index with
// 0 = home.
type Event struct {
	Round   int       `json:"round"`
	Kind    EventKind `json:"kind"`
	Subject int       `json:"subject"`
	Object  int       `json:"object"`
	Nest    int       `json:"nest"`
}

// Round is the per-round record: populations by nest (index 0 = home) and an
// optional commitment census by nest.
type Round struct {
	Round       int   `json:"round"`
	Populations []int `json:"populations"`
	Commitments []int `json:"commitments,omitempty"`
}

// Trace accumulates rounds and events for one execution.
//
// Construct with New. Recording methods copy their slice arguments, so the
// engine may reuse buffers between rounds.
type Trace struct {
	numNests     int // candidate nests (excluding home)
	rounds       []Round
	events       []Event
	recordEvents bool
	maxEvents    int
}

// Option configures a Trace.
type Option func(*Trace)

// WithEvents enables discrete-event recording, keeping at most maxEvents
// events (0 means unlimited). Event recording is off by default because a
// large colony can generate millions of recruitment events.
func WithEvents(maxEvents int) Option {
	return func(t *Trace) {
		t.recordEvents = true
		t.maxEvents = maxEvents
	}
}

// New creates a Trace for an environment with numNests candidate nests.
func New(numNests int, opts ...Option) *Trace {
	t := &Trace{numNests: numNests}
	for _, o := range opts {
		o(t)
	}
	return t
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

// RecordEvent appends an event if event recording is enabled and the cap has
// not been reached.
func (t *Trace) RecordEvent(e Event) {
	if !t.recordEvents {
		return
	}
	if t.maxEvents > 0 && len(t.events) >= t.maxEvents {
		return
	}
	t.events = append(t.events, e)
}

// EventsEnabled reports whether the trace is accepting events; the engine
// uses this to skip event construction entirely when tracing is population-only.
func (t *Trace) EventsEnabled() bool {
	return t.recordEvents && (t.maxEvents == 0 || len(t.events) < t.maxEvents)
}

// Len returns the number of recorded rounds.
func (t *Trace) Len() int { return len(t.rounds) }

// Rounds returns the recorded rounds. The returned slice is the internal
// backing array; callers must treat it as read-only.
func (t *Trace) Rounds() []Round { return t.rounds }

// Events returns recorded events; read-only for callers.
func (t *Trace) Events() []Event { return t.events }

// EventCount returns the number of recorded events of the given kind.
func (t *Trace) EventCount(kind EventKind) int {
	n := 0
	for _, e := range t.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

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
	Events   []Event `json:"events,omitempty"`
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
	return jw.Close(t.events)
}

// ReadJSON parses a trace previously written by WriteJSON. Round shapes are
// validated against num_nests on decode, so a truncated or hand-edited
// document fails here instead of panicking later in PopulationSeries. Event
// recording is enabled on the result only when the document carries events:
// the wire format cannot distinguish "events on but none occurred" from
// "events off", so an eventless document reads back with events off (making
// write→read→write a fixed point).
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
	var opts []Option
	if len(doc.Events) > 0 {
		opts = append(opts, WithEvents(0))
	}
	t := New(doc.NumNests, opts...)
	t.rounds = doc.Rounds
	t.events = doc.Events
	return t, nil
}
