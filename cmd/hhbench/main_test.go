package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	ids := strings.Fields(out.String())
	if len(ids) != 27 || ids[0] != "E1" {
		t.Fatalf("listed ids = %v", ids)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "E1", "-scale", "small"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "SHAPE HOLDS") {
		t.Fatalf("output missing verdict:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "Lemma 2.1") {
		t.Fatalf("output missing claim:\n%s", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "gigantic"}, &out); err == nil {
		t.Fatal("bad scale accepted")
	}
	if err := run([]string{"-exp", "E99"}, &out); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-bogusflag"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestProfileFlags smoke-tests -cpuprofile/-memprofile: a tiny run must
// produce non-empty profile files.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	var out bytes.Buffer
	if err := run([]string{"-exp", "E1", "-cpuprofile", cpu, "-memprofile", mem}, &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}
