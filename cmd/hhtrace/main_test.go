package main

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

func TestRunCSV(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "32", "-k", "2", "-good", "1", "-format", "csv", "-seed", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "round,pop0,pop1,pop2") {
		t.Fatalf("csv header missing:\n%.80s", out.String())
	}
	if len(strings.Split(out.String(), "\n")) < 3 {
		t.Fatal("csv has no data rows")
	}
}

func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "32", "-k", "2", "-good", "1", "-format", "json", "-seed", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\"rounds\"") {
		t.Fatalf("json missing rounds:\n%.120s", out.String())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-format", "xml"}, &out); err == nil {
		t.Fatal("unknown format accepted")
	}
	if err := run([]string{"-n", "0"}, &out); err == nil {
		t.Fatal("zero colony accepted")
	}
	if err := run([]string{"-algo", "bogus"}, &out); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunLiveStreamsSweep(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-live", "-reps", "4", "-n", "48", "-k", "2", "-good", "1", "-seed", "5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if lines[0] != "rep,round,pop0,pop1,pop2,committed0,committed1,committed2" {
		t.Fatalf("live header = %q", lines[0])
	}
	if len(lines) < 5 {
		t.Fatalf("live sweep emitted %d rows, want at least one per replicate", len(lines)-1)
	}
	// Every replicate must appear, and every row must have the header's arity.
	seen := map[string]bool{}
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if len(fields) != 8 {
			t.Fatalf("row %q has %d fields, want 8", line, len(fields))
		}
		seen[fields[0]] = true
	}
	for _, rep := range []string{"0", "1", "2", "3"} {
		if !seen[rep] {
			t.Errorf("no streamed rows for replicate %s", rep)
		}
	}
}

func TestRunLiveIsDeterministic(t *testing.T) {
	runOnce := func() string {
		var out bytes.Buffer
		if err := run([]string{"-live", "-reps", "3", "-n", "32", "-k", "2", "-good", "2", "-algo", "optimal", "-seed", "9"}, &out); err != nil {
			t.Fatal(err)
		}
		// Lane scheduling interleaves replicates nondeterministically, so
		// compare the sorted row multiset, not the arrival order.
		lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatal("same seed produced different streamed records")
	}
}

func TestRunLiveRejectsBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-live", "-format", "json"}, &out); err == nil {
		t.Fatal("live json accepted")
	}
	if err := run([]string{"-live", "-reps", "0"}, &out); err == nil {
		t.Fatal("zero reps accepted")
	}
	if err := run([]string{"-live", "-algo", "bogus"}, &out); err == nil {
		t.Fatal("unknown live algorithm accepted")
	}
	// A negative budget fails with the replay mode's message, before the
	// sweep writes anything.
	const want = "househunt: negative round budget -5"
	for _, args := range [][]string{
		{"-rounds", "-5"},
		{"-live", "-reps", "2", "-n", "64", "-k", "2", "-rounds", "-5"},
	} {
		out.Reset()
		if err := run(args, &out); err == nil || err.Error() != want {
			t.Fatalf("%v: error %v, want %q", args, err, want)
		}
		if out.Len() != 0 {
			t.Fatalf("%v: wrote %q before failing", args, out.String())
		}
	}
}
