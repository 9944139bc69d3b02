package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tinySizes shrinks every op so each workload runs in well under a second.
var tinySizes = sizes{
	sweepN: 128, sweepReps: 4,
	colonyN:     4096,
	emigN:       256,
	setupReps:   2,
	probeDraws:  1 << 12,
	truncRounds: 2,
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs one workload at tinySizes for a single pass through its cells
// and returns the exit status, the record line and the result line.
func runTiny(t *testing.T, workload string, seed uint64, traced bool, corrupt func(int, *outcome)) (int, report, result) {
	t.Helper()
	var stdout, log bytes.Buffer
	code := runBench(config{
		workload: workload, seed: seed, trace: traced, sizes: tinySizes,
		start: time.Now(), log: &log, corrupt: corrupt,
		spansPath: filepath.Join(t.TempDir(), "spans.json"),
	}, &stdout)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%s: want a record and a result line, got %q (log %s)", workload, stdout.String(), log.String())
	}
	var rep report
	var res result
	if err := json.Unmarshal([]byte(lines[0]), &rep); err != nil {
		t.Fatalf("%s: record line: %v", workload, err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
		t.Fatalf("%s: result line: %v", workload, err)
	}
	if corrupt == nil && (code != 0 || log.Len() > 0) {
		t.Fatalf("%s: exit %d, log:\n%s", workload, code, log.String())
	}
	return code, rep, res
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmark(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, code %s", got, want)
	}
	if len(bf.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, code %d", len(bf.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range bf.EndToEnd {
		if d := endToEndMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, code %+v", i, m.Name, m.Unit, m.Better, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, code %d", len(bf.PerLayer), len(perLayerMetrics))
	}
	for i, m := range bf.PerLayer {
		if d := perLayerMetrics[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, code %+v", i, m.Name, m.Unit, m.Better, d)
		}
	}
}

// TestWorkloads runs every workload untraced and traced and checks that the
// result line carries exactly BENCHMARK.json's metrics, with their units,
// and that no op failed.
func TestWorkloads(t *testing.T) {
	bf := readBenchmark(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			_, rep, res := runTiny(t, w, 7, traced, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want[traced]) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want[traced]))
			}
			for name, unit := range want[traced] {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w, traced, name)
				case m.Unit != unit:
					t.Errorf("%s traced=%v: %s unit %q, want %q", w, traced, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w, traced, name, m.Value)
				}
			}
			if h := rep.Host; h.GOMAXPROCS < 1 || h.NumCPU < 1 || h.Go == "" || h.GOGC == "" || h.CPU == "" || rep.Seed != 7 {
				t.Errorf("%s: incomplete fingerprint %+v seed %d", w, h, rep.Seed)
			}
		}
	}
}

// TestSeedDeterminism: one seed reproduces its op results and exact
// ant-round count; other seeds change them. A colony-1m pass is one colony,
// whose round count and winner another seed can repeat, so two other seeds
// are tried.
func TestSeedDeterminism(t *testing.T) {
	rounds := func(r result) float64 { return r.Metrics["sim.ant_rounds"].Value }
	for _, w := range workloadNames() {
		_, a, ra := runTiny(t, w, 7, true, nil)
		_, b, rb := runTiny(t, w, 7, true, nil)
		if a.Digest != b.Digest || rounds(ra) != rounds(rb) {
			t.Errorf("%s: seed 7 gave digests %s, %s and ant-rounds %v, %v", w, a.Digest, b.Digest, rounds(ra), rounds(rb))
		}
		digestMoved, roundsMoved := false, false
		for _, seed := range []uint64{8, 9} {
			_, c, rc := runTiny(t, w, seed, true, nil)
			digestMoved = digestMoved || c.Digest != a.Digest
			roundsMoved = roundsMoved || rounds(rc) != rounds(ra)
		}
		if !digestMoved || !roundsMoved {
			t.Errorf("%s: seeds 8 and 9 repeat seed 7's digest (%v) or ant-rounds (%v)", w, !digestMoved, !roundsMoved)
		}
	}
}

// TestCorruptedResultFails feeds the checks a changed winner or round count
// and expects a failed op and a non-zero exit after the metrics are printed.
func TestCorruptedResultFails(t *testing.T) {
	cases := []struct {
		workload string
		corrupt  func(*outcome)
	}{
		// A changed winner: every op's own check sees a bad or split nest.
		{"colony-1m", func(o *outcome) { o.results[0].Winner = 16 }},
		{"emigration", func(o *outcome) { o.hh.Winner = 8 }},
		// A changed round count: op 0's oracle re-runs the sweep.
		{"sweep-lockstep", func(o *outcome) { o.point.Rounds.TotalObserved++ }},
		{"sweep-general", func(o *outcome) { o.point.Rounds.Max++ }},
		{"emigration", func(o *outcome) { o.hh.Rounds++ }},
	}
	for _, tc := range cases {
		code, rep, res := runTiny(t, tc.workload, 7, false, func(op int, o *outcome) {
			if op == 0 {
				tc.corrupt(o)
			}
		})
		if code == 0 || res.Correct || res.Failed != 1 || rep.Failed != 1 {
			t.Errorf("%s: exit %d, correct=%v failed=%d; want one failed op and a non-zero exit", tc.workload, code, res.Correct, res.Failed)
		}
		if len(res.Metrics) != len(endToEndMetrics) {
			t.Errorf("%s: printed %d metrics after a failure, want %d", tc.workload, len(res.Metrics), len(endToEndMetrics))
		}
	}
}

// TestTracedRunWritesSpans checks the spans file: op spans with replayed
// children at the layer entry points.
func TestTracedRunWritesSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	var stdout, log bytes.Buffer
	if code := runBench(config{workload: "emigration", seed: 3, trace: true, sizes: tinySizes,
		start: time.Now(), log: &log, spansPath: path}, &stdout); code != 0 {
		t.Fatalf("exit %d: %s", code, log.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	ops := map[int]bool{}
	for _, s := range f.Spans {
		names[s.Name]++
		if s.Name == "op" {
			ops[s.ID] = true
		}
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
	for _, name := range []string{"op", "algo.Build", "sim.New", "sim.Engine.Step+core.TakeCensus",
		"core.CompileForBatch", "sim.NewBatch", "sim.Batch.Run"} {
		if names[name] == 0 {
			t.Errorf("no %s span in %v", name, names)
		}
	}
	for _, s := range f.Spans {
		if s.Name == "algo.Build" && s.Op >= 0 && !ops[s.Parent] {
			t.Errorf("replay span %d has parent %d, not an op span", s.ID, s.Parent)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "0"}, &out, &errs); code != 1 || out.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, out.String())
	}
	if code := run([]string{"--workload", "emigration", "--trace", "2"}, &out, &errs); code != 2 {
		t.Errorf("--trace 2: exit %d", code)
	}
}

// TestIQRMatchesPython pins iqr to statistics.quantiles(xs, n=4).
func TestIQRMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 8.25 - 2.75},
		{[]float64{3, 1, 2}, 3 - 1},
		{[]float64{10, 12, 11, 13, 50}, 31.5 - 10.5},
	} {
		if got := iqr(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("iqr(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := func(base float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base * (1 + 0.002*float64(i%3))
		}
		return xs
	}
	noisy := []float64{10, 14, 9, 13, 10, 15, 9, 14, 10, 13}
	for _, tc := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		want         string
	}{
		{"same", steady(10), steady(10), false, "unchanged"},
		{"slower", steady(10), steady(12), false, "worse"},
		{"faster", steady(10), steady(8), false, "better"},
		{"higher is better", steady(10), steady(8), true, "worse"},
		{"noisy", noisy, steady(10), false, "unresolved"},
		{"noisy but always faster", noisy, steady(5), false, "better"},
		{"too few pairs", steady(10)[:5], steady(8)[:5], false, "unchanged"},
	} {
		if got := judge(tc.a, tc.b, tc.higherBetter, 0.1).verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		var buf bytes.Buffer
		for i := 0; i < 10; i++ {
			m := map[string]metricValue{}
			for _, d := range endToEndMetrics {
				m[d.name] = metricValue{Value: 100 * (1 + 0.001*float64(i%2)), Unit: d.unit, Samples: 1}
			}
			m["op_ms_p50"] = metricValue{Value: 100 * scale, Unit: "ms", Samples: 1}
			line, _ := json.Marshal(report{Type: "record", Workload: "sweep-lockstep", Seed: uint64(i), Metrics: m})
			buf.Write(line)
			buf.WriteString("\n{\"correct\":true}\n")
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := write("a.jsonl", 1), write("b.jsonl", 1.5)
	var out bytes.Buffer
	worse, err := compareFiles(filepath.Join("..", "BENCHMARK.json"), a, b, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !worse || !strings.Contains(out.String(), "op_ms_p50        worse") || !strings.Contains(out.String(), "setup_s          unchanged") {
		t.Errorf("compare output:\n%s", out.String())
	}
}
