package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/gmrl/househunt/internal/rng"
)

// randomTrace builds an arbitrary valid trace for the round-trip properties.
func randomTrace(src *rng.Source) *Trace {
	numNests := 1 + src.Intn(5)
	tr := New(numNests)
	rounds := src.Intn(20)
	for r := 1; r <= rounds; r++ {
		pops := make([]int, numNests+1)
		for i := range pops {
			pops[i] = src.Intn(100)
		}
		var commits []int
		if src.Intn(3) > 0 {
			commits = make([]int, numNests+1)
			for i := range commits {
				commits[i] = src.Intn(50)
			}
		}
		if err := tr.RecordRound(r, pops, commits); err != nil {
			panic(err)
		}
	}
	return tr
}

// TestWriteJSONByteIdenticalToOneShotEncoding pins the streaming JSONWriter
// against the historical whole-document encoding across random traces — the
// golden contract that the rewrite changed nothing on the wire.
func TestWriteJSONByteIdenticalToOneShotEncoding(t *testing.T) {
	t.Parallel()
	src := rng.New(0x7ACE)
	for trial := 0; trial < 50; trial++ {
		tr := randomTrace(src)
		var streamed bytes.Buffer
		if err := tr.WriteJSON(&streamed); err != nil {
			t.Fatal(err)
		}
		var oneShot bytes.Buffer
		if err := json.NewEncoder(&oneShot).Encode(jsonDoc{NumNests: tr.numNests, Rounds: tr.rounds}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed.Bytes(), oneShot.Bytes()) {
			t.Fatalf("trial %d: streamed JSON differs from one-shot encoding:\nstreamed: %s\none-shot: %s",
				trial, streamed.String(), oneShot.String())
		}
	}
}

// TestJSONRoundTripFixedPoint checks write→read→write is a fixed point on
// random traces.
func TestJSONRoundTripFixedPoint(t *testing.T) {
	t.Parallel()
	src := rng.New(0xF1CE)
	for trial := 0; trial < 50; trial++ {
		tr := randomTrace(src)
		var first bytes.Buffer
		if err := tr.WriteJSON(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, first.String())
		}
		if back.NumNests() != tr.NumNests() || back.Len() != tr.Len() {
			t.Fatalf("trial %d: shape changed: nests %d→%d rounds %d→%d",
				trial, tr.NumNests(), back.NumNests(), tr.Len(), back.Len())
		}
		var second bytes.Buffer
		if err := back.WriteJSON(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("trial %d: JSON round trip is not a fixed point:\nfirst:  %s\nsecond: %s",
				trial, first.String(), second.String())
		}
	}
}

// TestCSVRoundTripFixedPoint checks WriteCSV→ReadCSV→WriteCSV is a fixed
// point. CSV renders absent censuses as zeros, so the property quantifies
// over what the format can represent: the second and third documents must be
// byte-identical.
func TestCSVRoundTripFixedPoint(t *testing.T) {
	t.Parallel()
	src := rng.New(0xC5F)
	for trial := 0; trial < 50; trial++ {
		tr := randomTrace(src)
		var first bytes.Buffer
		if err := tr.WriteCSV(&first); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, first.String())
		}
		var second bytes.Buffer
		if err := back.WriteCSV(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("trial %d: CSV round trip is not a fixed point:\nfirst:\n%s\nsecond:\n%s",
				trial, first.String(), second.String())
		}
		again, err := ReadCSV(bytes.NewReader(second.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Rounds(), again.Rounds()) {
			t.Fatalf("trial %d: rounds changed across CSV round trips", trial)
		}
	}
}

func TestReadJSONValidatesShapes(t *testing.T) {
	t.Parallel()
	cases := []struct{ name, doc string }{
		{"truncated populations", `{"num_nests":2,"rounds":[{"round":1,"populations":[1,2]}]}`},
		{"oversized populations", `{"num_nests":1,"rounds":[{"round":1,"populations":[1,2,3]}]}`},
		{"truncated commitments", `{"num_nests":1,"rounds":[{"round":1,"populations":[1,2],"commitments":[5]}]}`},
		{"negative num_nests", `{"num_nests":-1,"rounds":null}`},
	}
	for _, tc := range cases {
		if _, err := ReadJSON(strings.NewReader(tc.doc)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The errors must arrive at decode time, not as a later panic.
	good := `{"num_nests":1,"rounds":[{"round":1,"populations":[3,4]}]}`
	tr, err := ReadJSON(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Rounds()[0].Populations[1]; got != 4 {
		t.Fatalf("population of nest 1 = %d, want 4", got)
	}
}

func TestReadCSVRejectsMalformed(t *testing.T) {
	t.Parallel()
	cases := []struct{ name, doc string }{
		{"empty", ""},
		{"bad first column", "r,pop0\n"},
		{"no populations", "round,committed0\n"},
		{"gapped pops", "round,pop0,pop2\n"},
		{"commit count mismatch", "round,pop0,pop1,committed0\n"},
		{"short row", "round,pop0,pop1\n1,5\n"},
		{"non-numeric", "round,pop0,pop1\n1,5,x\n"},
	}
	for _, tc := range cases {
		if _, err := ReadCSV(strings.NewReader(tc.doc)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestCSVWriterHeaderOnlyOnClose(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	cw := NewCSVWriter(&buf, 1, false)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "round,pop0,pop1\n" {
		t.Fatalf("empty stream = %q", buf.String())
	}
}

func TestCSVWriterValidatesRows(t *testing.T) {
	t.Parallel()
	cw := NewCSVWriter(&bytes.Buffer{}, 2, true)
	if err := cw.WriteRound(Round{Round: 1, Populations: []int{1}}); err == nil {
		t.Fatal("short populations accepted")
	}
	if err := cw.WriteRound(Round{Round: 1, Populations: []int{1, 2, 3}, Commitments: []int{1}}); err == nil {
		t.Fatal("short commitments accepted")
	}
}

func TestJSONWriterMisuse(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	jw := NewJSONWriter(&buf, 1)
	if err := jw.WriteRound(Round{Round: 1, Populations: []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jw.WriteRound(Round{Round: 2, Populations: []int{1, 2}}); err == nil {
		t.Fatal("WriteRound after Close accepted")
	}
	if err := jw.Close(); err == nil {
		t.Fatal("double Close accepted")
	}
	if err := NewJSONWriter(&bytes.Buffer{}, 1).WriteRound(Round{Populations: []int{1}}); err == nil {
		t.Fatal("short populations accepted")
	}
}

// TestJSONWriterEmptyMatchesEmptyTrace pins the zero-round encoding
// ("rounds":null) against an actual empty Trace.
func TestJSONWriterEmptyMatchesEmptyTrace(t *testing.T) {
	t.Parallel()
	var streamed, oneShot bytes.Buffer
	if err := NewJSONWriter(&streamed, 3).Close(); err != nil {
		t.Fatal(err)
	}
	if err := New(3).WriteJSON(&oneShot); err != nil {
		t.Fatal(err)
	}
	if streamed.String() != oneShot.String() {
		t.Fatalf("empty stream %q != empty trace %q", streamed.String(), oneShot.String())
	}
}
