package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CSVWriter streams trace rounds as CSV rows the moment they arrive, without
// holding the trace in memory — the export half of the telemetry path: a
// collector sink can write each drained record straight to disk. The column
// layout (round,pop0..popK[,committed0..committedK]) and the error shapes
// match Trace.WriteCSV exactly; Trace.WriteCSV is itself implemented on top
// of this writer.
//
// Whether commitment columns are present must be declared up front
// (streaming cannot scan ahead the way the whole-trace exporter could);
// rounds without a census then render zeros in those columns.
type CSVWriter struct {
	w           io.Writer
	numNests    int
	commitments bool
	headerDone  bool
	b           strings.Builder
}

// NewCSVWriter returns a writer for an environment with numNests candidate
// nests. When commitments is true every row carries commitment columns.
func NewCSVWriter(w io.Writer, numNests int, commitments bool) *CSVWriter {
	return &CSVWriter{w: w, numNests: numNests, commitments: commitments}
}

// writeHeader emits the column header once.
func (cw *CSVWriter) writeHeader() error {
	cw.b.Reset()
	cw.b.WriteString("round")
	for i := 0; i <= cw.numNests; i++ {
		fmt.Fprintf(&cw.b, ",pop%d", i)
	}
	if cw.commitments {
		for i := 0; i <= cw.numNests; i++ {
			fmt.Fprintf(&cw.b, ",committed%d", i)
		}
	}
	cw.b.WriteByte('\n')
	cw.headerDone = true
	if _, err := io.WriteString(cw.w, cw.b.String()); err != nil {
		return fmt.Errorf("trace: writing CSV header: %w", err)
	}
	return nil
}

// WriteRound emits one row, flushing it to the underlying writer before
// returning so a failure is reported against the failing round, not
// discovered at close time.
func (cw *CSVWriter) WriteRound(r Round) error {
	if len(r.Populations) != cw.numNests+1 {
		return fmt.Errorf("trace: CSV row %d populations length %d, want %d", r.Round, len(r.Populations), cw.numNests+1)
	}
	if r.Commitments != nil && len(r.Commitments) != cw.numNests+1 {
		return fmt.Errorf("trace: CSV row %d commitments length %d, want %d", r.Round, len(r.Commitments), cw.numNests+1)
	}
	if !cw.headerDone {
		if err := cw.writeHeader(); err != nil {
			return err
		}
	}
	cw.b.Reset()
	fmt.Fprintf(&cw.b, "%d", r.Round)
	for _, p := range r.Populations {
		fmt.Fprintf(&cw.b, ",%d", p)
	}
	if cw.commitments {
		for i := 0; i <= cw.numNests; i++ {
			v := 0
			if r.Commitments != nil {
				v = r.Commitments[i]
			}
			fmt.Fprintf(&cw.b, ",%d", v)
		}
	}
	cw.b.WriteByte('\n')
	if _, err := io.WriteString(cw.w, cw.b.String()); err != nil {
		return fmt.Errorf("trace: writing CSV row %d: %w", r.Round, err)
	}
	return nil
}

// Close finishes the stream. A zero-round stream still gets its header, so
// the output is always a well-formed CSV document.
func (cw *CSVWriter) Close() error {
	if !cw.headerDone {
		return cw.writeHeader()
	}
	return nil
}

// ReadCSV parses a document written by CSVWriter / Trace.WriteCSV back into
// a Trace. The header determines the nest count and whether commitment
// columns are present.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("trace: reading CSV header: %w", err)
		}
		return nil, fmt.Errorf("trace: reading CSV: empty document")
	}
	cols := strings.Split(sc.Text(), ",")
	if len(cols) < 2 || cols[0] != "round" {
		return nil, fmt.Errorf("trace: reading CSV: malformed header %q", sc.Text())
	}
	numNests := -1 // highest popN seen; nest 0 is home
	commitCols := 0
	for i, c := range cols[1:] {
		switch {
		case strings.HasPrefix(c, "pop") && commitCols == 0:
			n, err := strconv.Atoi(c[len("pop"):])
			if err != nil || n != i {
				return nil, fmt.Errorf("trace: reading CSV: unexpected header column %q", c)
			}
			numNests = n
		case strings.HasPrefix(c, "committed"):
			n, err := strconv.Atoi(c[len("committed"):])
			if err != nil || n != commitCols {
				return nil, fmt.Errorf("trace: reading CSV: unexpected header column %q", c)
			}
			commitCols++
		default:
			return nil, fmt.Errorf("trace: reading CSV: unexpected header column %q", c)
		}
	}
	if numNests < 0 {
		return nil, fmt.Errorf("trace: reading CSV: header has no population columns")
	}
	hasCommit := commitCols > 0
	if hasCommit && commitCols != numNests+1 {
		return nil, fmt.Errorf("trace: reading CSV: %d commitment columns for %d nests", commitCols, numNests)
	}

	t := New(numNests)
	wantFields := 1 + (numNests + 1)
	if hasCommit {
		wantFields += numNests + 1
	}
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Split(sc.Text(), ",")
		if len(fields) != wantFields {
			return nil, fmt.Errorf("trace: reading CSV line %d: %d fields, want %d", line, len(fields), wantFields)
		}
		vals := make([]int, len(fields))
		for i, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("trace: reading CSV line %d: field %q: %w", line, f, err)
			}
			vals[i] = v
		}
		rec := Round{Round: vals[0], Populations: vals[1 : numNests+2]}
		if hasCommit {
			rec.Commitments = vals[numNests+2:]
		}
		t.rounds = append(t.rounds, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading CSV: %w", err)
	}
	return t, nil
}

// JSONWriter streams a trace as the same single JSON document
// Trace.WriteJSON produces — byte-identical, including the trailing newline
// — but emits each round as it arrives instead of buffering the run.
// Trace.WriteJSON is implemented on top of this writer.
//
// Use: WriteRound per round, then Close exactly once. A stream with zero
// rounds encodes "rounds":null, matching the encoding of a Trace that never
// recorded a round.
type JSONWriter struct {
	w        io.Writer
	numNests int
	rounds   int
	closed   bool
}

// NewJSONWriter returns a writer for an environment with numNests candidate
// nests.
func NewJSONWriter(w io.Writer, numNests int) *JSONWriter {
	return &JSONWriter{w: w, numNests: numNests}
}

// emit writes raw bytes with the package's uniform JSON error shape.
func (jw *JSONWriter) emit(s string) error {
	if _, err := io.WriteString(jw.w, s); err != nil {
		return fmt.Errorf("trace: encoding JSON: %w", err)
	}
	return nil
}

// WriteRound appends one round to the document's rounds array.
func (jw *JSONWriter) WriteRound(r Round) error {
	if jw.closed {
		return fmt.Errorf("trace: JSONWriter: WriteRound after Close")
	}
	if len(r.Populations) != jw.numNests+1 {
		return fmt.Errorf("trace: JSON round %d populations length %d, want %d", r.Round, len(r.Populations), jw.numNests+1)
	}
	if r.Commitments != nil && len(r.Commitments) != jw.numNests+1 {
		return fmt.Errorf("trace: JSON round %d commitments length %d, want %d", r.Round, len(r.Commitments), jw.numNests+1)
	}
	sep := ","
	if jw.rounds == 0 {
		if err := jw.emit(`{"num_nests":` + strconv.Itoa(jw.numNests) + `,"rounds":[`); err != nil {
			return err
		}
		sep = ""
	}
	enc, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("trace: encoding JSON: %w", err)
	}
	jw.rounds++
	if err := jw.emit(sep + string(enc)); err != nil {
		return err
	}
	return nil
}

// Close terminates the document and writes the trailing newline. It must be
// called exactly once.
func (jw *JSONWriter) Close() error {
	if jw.closed {
		return fmt.Errorf("trace: JSONWriter: Close called twice")
	}
	jw.closed = true
	if jw.rounds == 0 {
		if err := jw.emit(`{"num_nests":` + strconv.Itoa(jw.numNests) + `,"rounds":null`); err != nil {
			return err
		}
	} else if err := jw.emit("]"); err != nil {
		return err
	}
	return jw.emit("}\n")
}
