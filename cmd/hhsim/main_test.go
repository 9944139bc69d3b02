package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/gmrl/househunt/internal/core"
)

func TestRunBasic(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "64", "-k", "2", "-good", "1", "-seed", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "solved") {
		t.Fatalf("summary missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "final commitments") {
		t.Fatalf("commitments missing:\n%s", out.String())
	}
}

// TestRunPrintsEngine pins the engine provenance line: batch-eligible runs
// (plotted or not) report the batch engine, and the scalar-only -jitter
// option reports the scalar engine with core.CompileForBatch's decline reason.
func TestRunPrintsEngine(t *testing.T) {
	base := []string{"-n", "64", "-k", "2", "-good", "1", "-seed", "4"}
	cases := []struct {
		extra []string
		want  string
	}{
		{nil, "engine: batch\n"},
		{[]string{"-plot", "-crash", "0.1"}, "engine: batch\n"},
		{[]string{"-jitter", "0.1"}, "engine: scalar (" + core.ReasonWrapperScalarOnly + ")\n"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		if err := run(append(append([]string(nil), base...), tc.extra...), &out); err != nil {
			t.Fatalf("%v: %v", tc.extra, err)
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%v: output lacks %q:\n%s", tc.extra, tc.want, out.String())
		}
	}
}

func TestRunWithPlotAndExtras(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-n", "96", "-k", "3", "-good", "2", "-algo", "optimal",
		"-plot", "-seed", "5",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "legend:") {
		t.Fatalf("plot missing:\n%s", out.String())
	}
}

func TestRunExplicitNests(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "64", "-nests", "0.2,0.9", "-algo", "quality", "-seed", "6"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "solved") {
		t.Fatalf("quality run failed:\n%s", out.String())
	}
}

func TestRunFaultFlags(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-n", "128", "-k", "2", "-good", "2",
		"-crash", "0.1", "-byz", "0.02", "-jitter", "0.05",
		"-count-noise", "0", "-seed", "7", "-rounds", "4000",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsInvalidFaultFlags pins flag-parse-time fault validation: any
// fraction/window combination the fault spec rejects must fail fast with the
// named errInvalidFaultFlags, and boundary-legal combinations (fractions
// summing to exactly 1, a window of exactly 1) must sail through.
func TestRunRejectsInvalidFaultFlags(t *testing.T) {
	invalid := [][]string{
		{"-crash", "-0.1"},
		{"-byz", "-1"},
		{"-sleep", "-0.5"},
		{"-crash", "0.6", "-byz", "0.6"},
		{"-crash", "0.5", "-byz", "0.3", "-sleep", "0.3"},
		{"-crash", "0.1", "-crash-window", "-1"},
		{"-sleep", "0.1", "-sleep-window", "-64"},
		{"-crash", "NaN"},
		{"-byz", "Inf"},
	}
	for _, args := range invalid {
		var out bytes.Buffer
		err := run(append([]string{"-n", "32", "-k", "2", "-good", "1"}, args...), &out)
		if !errors.Is(err, errInvalidFaultFlags) {
			t.Errorf("%v: err = %v, want errInvalidFaultFlags", args, err)
		}
	}
	valid := [][]string{
		{"-crash", "0.5", "-byz", "0.25", "-sleep", "0.25", "-sleep-window", "8"}, // fractions sum to exactly 1
		{"-crash", "0.1", "-crash-window", "1"},                                   // single-round window
		{"-sleep", "0.1", "-sleep-window", "1"},
	}
	for _, args := range valid {
		var out bytes.Buffer
		err := run(append([]string{"-n", "32", "-k", "2", "-good", "1", "-rounds", "50"}, args...), &out)
		if errors.Is(err, errInvalidFaultFlags) {
			t.Errorf("%v: boundary-legal fault flags rejected: %v", args, err)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-nests", "0.5,banana"}, &out); err == nil {
		t.Fatal("malformed nests accepted")
	}
	if err := run([]string{"-algo", "bogus"}, &out); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if err := run([]string{"-whatever"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
	// A set float flag reaches its option, which rejects a NaN or negative
	// value instead of the run dropping it and simulating without it.
	for _, args := range [][]string{
		{"-jitter", "NaN"}, {"-jitter", "-0.1"},
		{"-count-noise", "NaN"}, {"-count-noise", "-1"},
		{"-flip", "NaN"}, {"-flip", "-0.2"},
	} {
		if err := run(append([]string{"-n", "32", "-k", "2"}, args...), &out); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestParseQualities(t *testing.T) {
	qs, err := parseQualities(" 0.1 , 0.9 ,1.0")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 3 || qs[0] != 0.1 || qs[2] != 1.0 {
		t.Fatalf("parsed %v", qs)
	}
	if _, err := parseQualities("a,b"); err == nil {
		t.Fatal("junk accepted")
	}
}
