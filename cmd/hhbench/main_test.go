package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
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
	if err := run([]string{"-engine", "warp"}, &out); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if err := run([]string{"-json"}, &out); err == nil {
		t.Fatal("-json without -batchbench accepted")
	}
	if err := run([]string{"-out", "x.json"}, &out); err == nil {
		t.Fatal("-out without -batchbench accepted")
	}
	if err := run([]string{"-batchbench", "-out", "x.json"}, &out); err == nil {
		t.Fatal("-out without -json accepted")
	}
	if err := run([]string{"-baseline", "x.json"}, &out); err == nil {
		t.Fatal("-baseline without -batchbench accepted")
	}
}

// TestBatchBenchJSONRecords runs a shrunken batch benchmark and checks the
// machine-readable BENCH records: one per (algorithm, engine) cell, with the
// batch cells carrying a positive speedup. The published sizing is exercised
// by hand via `hhbench -batchbench`; this pins the record schema.
func TestBatchBenchJSONRecords(t *testing.T) {
	var out bytes.Buffer
	bb := batchBenchConfig{n: 64, k: 4, good: 2, reps: 4, maxRounds: 2000, minTime: time.Millisecond, json: true}
	if err := runBatchBench(&out, bb); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&out)
	var recs []benchRecord
	for dec.More() {
		var rec benchRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 19 {
		t.Fatalf("got %d BENCH records, want 19:\n%+v", len(recs), recs)
	}
	wantCells := []struct{ algorithm, engine string }{
		{"simple", "scalar"}, {"simple", "batch"}, {"simple", "batch+obs"},
		{"optimal", "scalar"}, {"optimal", "batch"},
		{"adaptive", "scalar"}, {"adaptive", "batch"},
		{"quality", "scalar"}, {"quality", "batch"},
		{"approxn(δ=0.2)", "scalar"}, {"approxn(δ=0.2)", "batch"},
		{"quorum(M=1.5)", "scalar"}, {"quorum(M=1.5)", "batch"},
		{"noisy[relative(σ=0.1),exact]", "scalar"}, {"noisy[relative(σ=0.1),exact]", "batch"},
		{"simple+crash10", "scalar"}, {"simple+crash10", "batch"},
		{"simple+targeted", "scalar"}, {"simple+targeted", "batch"},
	}
	for i, rec := range recs {
		if rec.Type != "BENCH" {
			t.Errorf("record %d: type %q, want BENCH", i, rec.Type)
		}
		if rec.Algorithm != wantCells[i].algorithm || rec.Engine != wantCells[i].engine {
			t.Errorf("record %d: cell %s/%s, want %s/%s",
				i, rec.Algorithm, rec.Engine, wantCells[i].algorithm, wantCells[i].engine)
		}
		if rec.N != bb.n || rec.K != bb.k || rec.Reps != bb.reps {
			t.Errorf("record %d: sizing %+v does not match config", i, rec)
		}
		if rec.AntStepsPerSec <= 0 || rec.MsPerSweep <= 0 {
			t.Errorf("record %d: non-positive throughput: %+v", i, rec)
		}
		isBatch := rec.Engine == "batch" || rec.Engine == "batch+obs"
		if isBatch && rec.Speedup <= 0 {
			t.Errorf("record %d: batch cell missing speedup: %+v", i, rec)
		}
		if !isBatch && rec.Speedup != 0 {
			t.Errorf("record %d: scalar cell carries a speedup: %+v", i, rec)
		}
	}
}

// TestBatchBenchBigCellRecords runs a shrunken large-colony cell and pins its
// record schema: one batch-only sweep record plus one "+scale" row per worker
// budget, all carrying positive throughput, the scale rows carrying their
// worker count. The bit-identity of the scaling rows is asserted inside
// runBigCell itself — a divergent multi-worker run fails the bench.
func TestBatchBenchBigCellRecords(t *testing.T) {
	var out bytes.Buffer
	bb := batchBenchConfig{
		json: true,
		bigN: 4096, bigK: 4, bigGood: 2, bigReps: 2, maxRounds: 2000,
		scaleWorkers: []int{1, 2, 7},
	}
	recs, err := runBigCell(&out, bb)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1+len(bb.scaleWorkers) {
		t.Fatalf("got %d records, want %d: %+v", len(recs), 1+len(bb.scaleWorkers), recs)
	}
	if recs[0].Algorithm != "simple" || recs[0].Engine != "batch" || recs[0].Reps != bb.bigReps || recs[0].Workers != 0 {
		t.Errorf("sweep record %+v has the wrong shape", recs[0])
	}
	for i, w := range bb.scaleWorkers {
		rec := recs[1+i]
		if rec.Algorithm != "simple+scale" || rec.Reps != 1 || rec.Workers != w {
			t.Errorf("scale record %d: %+v, want workers=%d over 1 replicate", i, rec, w)
		}
	}
	for i, rec := range recs {
		if rec.N != bb.bigN || rec.K != bb.bigK || rec.MsPerSweep <= 0 || rec.AntStepsPerSec <= 0 {
			t.Errorf("record %d: bad sizing or timing: %+v", i, rec)
		}
	}
}

// TestRunEngineScalar forces the scalar replicate loop; the experiment must
// still regenerate and pass (the batch path is bit-identical, so either
// engine yields the same table).
func TestRunEngineScalar(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-engine", "scalar", "-exp", "E2", "-scale", "small"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "SHAPE HOLDS") {
		t.Fatalf("output missing verdict:\n%s", out.String())
	}
}

// TestBatchBenchOutAndBaseline exercises the perf artifact round trip: a
// shrunken benchmark writes its BENCH records via bb.out, and a second run is
// gated against baselines doctored from them. A baseline whose batch cells
// ran 1000x slower must pass the gate, one whose batch cells ran 1000x faster
// must fail it, and a baseline sharing no cells errors. The shrunken cells
// run for milliseconds, so two timings of the same cell can differ severalfold
// on a busy host; the 1000x margins keep every outcome independent of that
// noise, and TestCompareBenchBaseline pins the gate's arithmetic exactly.
func TestBatchBenchOutAndBaseline(t *testing.T) {
	dir := t.TempDir()
	artifact := filepath.Join(dir, "BENCH_test.json")
	bb := batchBenchConfig{n: 64, k: 4, good: 2, reps: 4, maxRounds: 2000, minTime: time.Millisecond, json: true, out: artifact}
	var out bytes.Buffer
	if err := runBatchBench(&out, bb); err != nil {
		t.Fatal(err)
	}
	records, err := readBenchRecords(artifact)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("artifact holds no records")
	}
	batchCells := 0
	for _, rec := range records {
		if rec.Engine == "batch" {
			batchCells++
			if rec.MsPerSweep <= 0 {
				t.Fatalf("batch record without timing: %+v", rec)
			}
		}
	}
	if batchCells == 0 {
		t.Fatal("artifact holds no batch cells")
	}

	// scaled writes a copy of the artifact with every batch cell's timing
	// multiplied by factor.
	scaled := func(name string, factor float64) string {
		t.Helper()
		doctored := append([]benchRecord(nil), records...)
		for i := range doctored {
			if doctored[i].Engine == "batch" {
				doctored[i].MsPerSweep *= factor
			}
		}
		path := filepath.Join(dir, name)
		if err := writeBenchRecords(path, doctored); err != nil {
			t.Fatal(err)
		}
		return path
	}
	check := bb
	check.out = ""
	check.tolerance = 0.30

	// A baseline claiming the batch cells once ran 1000x slower passes.
	check.baseline = scaled("BENCH_slow.json", 1000)
	out.Reset()
	if err := runBatchBench(&out, check); err != nil {
		t.Fatalf("slower baseline comparison failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "baseline check passed") {
		t.Fatalf("comparison output missing pass line:\n%s", out.String())
	}

	// A baseline claiming the batch cells once ran 1000x faster must trip
	// the gate.
	check.baseline = scaled("BENCH_fast.json", 1.0/1000)
	out.Reset()
	if err := runBatchBench(&out, check); err == nil {
		t.Fatalf("faster baseline accepted:\n%s", out.String())
	} else if !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("unexpected gate error: %v", err)
	}

	// A baseline with no overlapping cells is a configuration error.
	foreign := filepath.Join(dir, "BENCH_foreign.json")
	if err := writeBenchRecords(foreign, []benchRecord{{Type: "BENCH", Engine: "batch", Algorithm: "nope", N: 1, K: 1, Reps: 1, MsPerSweep: 1}}); err != nil {
		t.Fatal(err)
	}
	check.baseline = foreign
	if err := runBatchBench(&out, check); err == nil {
		t.Fatal("disjoint baseline accepted")
	}
}

// TestCompareBenchBaseline pins the gate on synthetic records: a batch cell
// may run slower than its baseline by exactly the tolerance but not beyond,
// scalar cells never gate, and a baseline sharing no batch cell is an error.
// The timings are binary fractions, so every ratio is exact.
func TestCompareBenchBaseline(t *testing.T) {
	cell := func(engine string, ms float64) benchRecord {
		return benchRecord{Type: "BENCH", Engine: engine, Algorithm: "simple", N: 64, K: 4, Reps: 4, MsPerSweep: ms}
	}
	other := cell("batch", 4)
	other.Algorithm = "optimal"
	cases := []struct {
		name    string
		base    []benchRecord
		fresh   []benchRecord
		wantErr string // empty: the gate passes
	}{
		{"at tolerance", []benchRecord{cell("batch", 4)}, []benchRecord{cell("batch", 5)}, ""},
		{"above tolerance", []benchRecord{cell("batch", 4)}, []benchRecord{cell("batch", 5.0001)}, "regressed"},
		{"faster", []benchRecord{cell("batch", 4)}, []benchRecord{cell("batch", 1)}, ""},
		{"scalar ignored", []benchRecord{cell("scalar", 1), cell("batch", 4)}, []benchRecord{cell("scalar", 100), cell("batch", 4)}, ""},
		{"scalar only", []benchRecord{cell("scalar", 4)}, []benchRecord{cell("scalar", 4)}, "shares no batch cells"},
		{"no overlap", []benchRecord{other}, []benchRecord{cell("batch", 4)}, "shares no batch cells"},
	}
	dir := t.TempDir()
	for i, tc := range cases {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", i))
		if err := writeBenchRecords(path, tc.base); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err := compareBenchBaseline(&out, batchBenchConfig{baseline: path, tolerance: 0.25}, tc.fresh)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: gate failed: %v\n%s", tc.name, err, out.String())
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
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
