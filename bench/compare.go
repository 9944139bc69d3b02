package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// readRecords collects the untraced run records in a file of benchmark
// output, by workload in file order; every other line is skipped.
func readRecords(path string) (map[string][]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, `"type":"record"`) {
			continue
		}
		var rep report
		if err := json.Unmarshal([]byte(line), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rep.Trace == 0 {
			out[rep.Workload] = append(out[rep.Workload], rep)
		}
	}
	return out, sc.Err()
}

// compareFiles judges run set b against run set a for every workload and
// end-to-end metric under the bounds in benchPath, prints one row each, and
// reports whether any row is worse. Run i of a workload in a pairs with run
// i of the same workload in b; run the two sets alternately.
func compareFiles(benchPath, aPath, bPath string, out io.Writer) (bool, error) {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(aPath)
	if err != nil {
		return false, err
	}
	b, err := readRecords(bPath)
	if err != nil {
		return false, err
	}
	var names []string
	for name := range a {
		if len(b[name]) > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return false, fmt.Errorf("no workload has untraced records in both %s and %s", aPath, bPath)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-15s %-16s %-10s %14s %14s %8s %8s %8s %6s %6s\n",
		"workload", "metric", "verdict", "median_a", "median_b", "change", "iqr_a", "iqr_b", "wins", "bound")
	worse := false
	for _, name := range names {
		ra, rb := a[name], b[name]
		for _, m := range bf.EndToEnd {
			va, err := metricValues(ra, m.Name)
			if err != nil {
				return false, fmt.Errorf("%s: %s: %w", aPath, name, err)
			}
			vb, err := metricValues(rb, m.Name)
			if err != nil {
				return false, fmt.Errorf("%s: %s: %w", bPath, name, err)
			}
			j := judge(va, vb, m.Better == "higher", m.Bound)
			worse = worse || j.verdict == "worse"
			fmt.Fprintf(out, "%-15s %-16s %-10s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %3d/%-2d %5.0f%%\n",
				name, m.Name, j.verdict, j.medA, j.medB, 100*j.change, 100*j.spreadA, 100*j.spreadB, j.wins, j.pairs, 100*m.Bound)
		}
	}
	return worse, nil
}

func metricValues(reps []report, name string) ([]float64, error) {
	vs := make([]float64, len(reps))
	for i, r := range reps {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("record for seed %d lacks metric %s", r.Seed, name)
		}
		vs[i] = m.Value
	}
	return vs, nil
}

// judgement is one metric's verdict on run set b against run set a.
type judgement struct {
	verdict          string
	medA, medB       float64
	change           float64 // (medB - medA) / medA
	spreadA, spreadB float64 // interquartile range over median
	wins, pairs      int     // pairs in which b reads better than a
}

// judge applies the benchmark's rule. A set whose spread exceeds the bound
// leaves the metric unresolved, unless every run of b reads better than
// every run of a. Otherwise a median worse by more than the bound is worse;
// a gain needs at least ten pairs, b winning nine tenths of them, and medians
// further apart than a's interquartile range; anything else is unchanged.
func judge(a, b []float64, higherBetter bool, bound float64) judgement {
	better := func(x, than float64) bool {
		if higherBetter {
			return x > than
		}
		return x < than
	}
	j := judgement{medA: median(a), medB: median(b), pairs: min(len(a), len(b))}
	iqrA, iqrB := iqr(a), iqr(b)
	j.change = (j.medB - j.medA) / j.medA
	j.spreadA, j.spreadB = iqrA/math.Abs(j.medA), iqrB/math.Abs(j.medB)
	for i := 0; i < j.pairs; i++ {
		if better(b[i], a[i]) {
			j.wins++
		}
	}
	worseBy := j.change
	if higherBetter {
		worseBy = -worseBy
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case (j.spreadA > bound || j.spreadB > bound) && !allBetter:
		j.verdict = "unresolved"
	case worseBy > bound:
		j.verdict = "worse"
	case j.pairs >= 10 && 10*j.wins >= 9*j.pairs && math.Abs(j.medB-j.medA) > iqrA:
		j.verdict = "better"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// iqr is the distance between the first and third quartiles, computed as
// Python's statistics.quantiles(xs, n=4) does (its default exclusive method).
func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	q := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(3) - q(1)
}
