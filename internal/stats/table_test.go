package stats

import (
	"strings"
	"testing"
)

// TestTableStringGolden pins the exact rendering: title line, padded header,
// rule sized to the column widths, aligned cells with two-space gutters and
// no trailing spaces.
func TestTableStringGolden(t *testing.T) {
	t.Parallel()
	tb := NewTable("E0: demo", "algorithm", "n", "rounds")
	tb.AddRow("simple", "1024", "412.5")
	tb.AddRow("optimal", "64", "31")
	want := strings.Join([]string{
		"E0: demo",
		"algorithm  n     rounds",
		"-----------------------",
		"simple     1024  412.5",
		"optimal    64    31",
		"",
	}, "\n")
	if got := tb.String(); got != want {
		t.Fatalf("Table.String golden mismatch:\ngot:\n%q\nwant:\n%q", got, want)
	}
}

func TestTableShortAndLongRows(t *testing.T) {
	t.Parallel()
	tb := NewTable("t", "a", "b")
	tb.AddRow("x")               // short: padded
	tb.AddRow("y", "z", "extra") // long: widens the table
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want title+header+rule+2 rows:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[4], "extra") {
		t.Fatalf("long row lost its extra cell:\n%s", out)
	}
	if strings.HasSuffix(lines[3], " ") {
		t.Fatalf("padded short row has trailing spaces: %q", lines[3])
	}
}

func TestTableEmpty(t *testing.T) {
	t.Parallel()
	var tb Table
	if got := tb.String(); got != "\n" {
		t.Fatalf("zero-value table rendered %q, want a bare newline", got)
	}
	titled := NewTable("only a title")
	if got := titled.String(); got != "only a title\n" {
		t.Fatalf("headerless table rendered %q", got)
	}
}

func TestTableHeaderlessRows(t *testing.T) {
	t.Parallel()
	tb := NewTable("t")
	tb.AddRow("a", "bb")
	out := tb.String()
	if strings.Contains(out, "-") {
		t.Fatalf("headerless table drew a rule:\n%s", out)
	}
	if !strings.Contains(out, "a  bb") {
		t.Fatalf("row cells misaligned:\n%s", out)
	}
}
