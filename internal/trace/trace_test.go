package trace

import (
	"bytes"
	"strings"
	"testing"
)

func mustRecord(t *testing.T, tr *Trace, round int, pops, commits []int) {
	t.Helper()
	if err := tr.RecordRound(round, pops, commits); err != nil {
		t.Fatal(err)
	}
}

func TestRecordRoundValidation(t *testing.T) {
	t.Parallel()
	tr := New(2)
	if err := tr.RecordRound(1, []int{1, 2}, nil); err == nil {
		t.Fatal("short populations accepted")
	}
	if err := tr.RecordRound(1, []int{1, 2, 3}, []int{1}); err == nil {
		t.Fatal("short commitments accepted")
	}
	if err := tr.RecordRound(1, []int{1, 2, 3}, nil); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
}

func TestRecordRoundCopies(t *testing.T) {
	t.Parallel()
	tr := New(1)
	buf := []int{5, 7}
	mustRecord(t, tr, 1, buf, nil)
	buf[0] = 99
	if tr.Rounds()[0].Populations[0] != 5 {
		t.Fatal("RecordRound did not copy populations")
	}
}

func TestSeries(t *testing.T) {
	t.Parallel()
	tr := New(2)
	mustRecord(t, tr, 1, []int{10, 5, 3}, []int{0, 6, 4})
	mustRecord(t, tr, 2, []int{8, 7, 3}, []int{0, 8, 2})
	com, err := tr.CommitmentSeries(2)
	if err != nil {
		t.Fatal(err)
	}
	if com[0] != 4 || com[1] != 2 {
		t.Fatalf("CommitmentSeries(2) = %v", com)
	}
	if _, err := tr.CommitmentSeries(3); err == nil {
		t.Fatal("out-of-range nest accepted")
	}
	if _, err := tr.CommitmentSeries(-1); err == nil {
		t.Fatal("negative nest accepted")
	}
}

func TestCommitmentSeriesWithoutCensus(t *testing.T) {
	t.Parallel()
	tr := New(1)
	mustRecord(t, tr, 1, []int{3, 2}, nil)
	com, err := tr.CommitmentSeries(1)
	if err != nil {
		t.Fatal(err)
	}
	if com[0] != 0 {
		t.Fatalf("missing census should read as 0, got %v", com[0])
	}
}

func TestWriteCSV(t *testing.T) {
	t.Parallel()
	tr := New(2)
	mustRecord(t, tr, 1, []int{10, 5, 3}, []int{0, 6, 4})
	mustRecord(t, tr, 2, []int{8, 7, 3}, nil)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want 3:\n%s", len(lines), out)
	}
	if lines[0] != "round,pop0,pop1,pop2,committed0,committed1,committed2" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "1,10,5,3,0,6,4" {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if lines[2] != "2,8,7,3,0,0,0" {
		t.Fatalf("row 2 (nil census should render zeros) = %q", lines[2])
	}
}

func TestWriteCSVNoCommitments(t *testing.T) {
	t.Parallel()
	tr := New(1)
	mustRecord(t, tr, 1, []int{4, 4}, nil)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "committed") {
		t.Fatalf("commitment columns present without census:\n%s", buf.String())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	t.Parallel()
	tr := New(2)
	mustRecord(t, tr, 1, []int{9, 6, 1}, []int{0, 7, 2})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNests() != 2 || back.Len() != 1 {
		t.Fatalf("round trip lost shape: nests=%d len=%d", back.NumNests(), back.Len())
	}
	if back.Rounds()[0].Populations[1] != 6 {
		t.Fatalf("round trip lost populations: %+v", back.Rounds()[0])
	}
}

func TestReadJSONError(t *testing.T) {
	t.Parallel()
	if _, err := ReadJSON(strings.NewReader("{nope")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestRenderPlot(t *testing.T) {
	t.Parallel()
	tr := New(2)
	for r := 1; r <= 20; r++ {
		mustRecord(t, tr, r, []int{100 - 2*r, 2 * r, r / 2}, nil)
	}
	out := tr.RenderPlot(PlotOptions{Width: 40, Height: 10})
	if !strings.Contains(out, "legend:") || !strings.Contains(out, "nest1=*") {
		t.Fatalf("plot missing legend:\n%s", out)
	}
	if strings.Contains(out, "home=") {
		t.Fatal("home series plotted without Home option")
	}
	withHome := tr.RenderPlot(PlotOptions{Width: 40, Height: 10, Home: true})
	if !strings.Contains(withHome, "home=") {
		t.Fatalf("home series missing:\n%s", withHome)
	}
}

func TestRenderPlotEmpty(t *testing.T) {
	t.Parallel()
	tr := New(1)
	if out := tr.RenderPlot(PlotOptions{}); !strings.Contains(out, "empty") {
		t.Fatalf("empty trace plot = %q", out)
	}
}

func TestRenderPlotSingleRound(t *testing.T) {
	t.Parallel()
	tr := New(1)
	mustRecord(t, tr, 1, []int{5, 5}, nil)
	out := tr.RenderPlot(PlotOptions{Width: 10, Height: 4})
	if out == "" {
		t.Fatal("single-round plot empty")
	}
}

// failWriter fails after a fixed number of bytes, to exercise export error
// paths.
type failWriter struct{ budget int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, errFull
	}
	n := len(p)
	if n > f.budget {
		n = f.budget
	}
	f.budget -= n
	if n < len(p) {
		return n, errFull
	}
	return n, nil
}

var errFull = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "synthetic writer failure" }

func TestWriteCSVPropagatesWriterErrors(t *testing.T) {
	t.Parallel()
	tr := New(1)
	mustRecord(t, tr, 1, []int{1, 1}, nil)
	if err := tr.WriteCSV(&failWriter{budget: 0}); err == nil {
		t.Fatal("header write failure swallowed")
	}
	if err := tr.WriteCSV(&failWriter{budget: 20}); err == nil {
		t.Fatal("row write failure swallowed")
	}
}

func TestWriteJSONPropagatesWriterErrors(t *testing.T) {
	t.Parallel()
	tr := New(1)
	mustRecord(t, tr, 1, []int{1, 1}, nil)
	if err := tr.WriteJSON(&failWriter{budget: 4}); err == nil {
		t.Fatal("json write failure swallowed")
	}
}
