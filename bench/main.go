// Command bench is the repository benchmark. One process runs one workload:
// a closed loop in which a single caller issues ops back to back against the
// simulator's public entry points, checks every op's output, and prints the
// workload's metrics. With --trace 1 it runs the same ops again as spans,
// replays each one through the layer entry points beneath it, and prints the
// per-layer metrics instead. See README.md for the workloads and metrics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash bench/run.sh --workload sweep-lockstep --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --compare a.jsonl b.jsonl
//
// Every input derives from --seed. The second-to-last line of standard output
// is the run's record (host fingerprint, per-metric sample counts, result
// digest), which --compare reads; the last line is the result object
// {"correct", "attempted", "failed", "metrics"}. A failed op makes the exit
// status non-zero after both lines are printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/stats"
)

// processStart stands in for the process start time: the main package's
// variables initialise after every imported package's init has run.
var processStart = time.Now()

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 1, "seed every input derives from")
		seconds = fs.Float64("seconds", 20, "length of the timed op loop in seconds")
		traced  = fs.Int("trace", 0, "1 runs the traced replay and prints the per-layer metrics")
		compare = fs.Bool("compare", false, "compare two files of run records: --compare a.jsonl b.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare needs two record files")
			return 2
		}
		worse, err := compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if worse {
			return 1
		}
		return 0
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "bench: --trace takes 0 or 1")
		return 2
	}
	cfg := config{
		workload: *name, seed: *seed, seconds: *seconds, trace: *traced == 1,
		sizes: defaultSizes, start: processStart, log: stderr,
		spansPath: filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", *name, *seed)),
	}
	return runBench(cfg, stdout)
}

// runBench runs one configured workload, prints its two output lines and
// returns the exit status: non-zero when the run could not finish or any op
// failed.
func runBench(cfg config, stdout io.Writer) int {
	rep, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(cfg.log, "bench:", err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(cfg.log, "bench:", err)
		return 1
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// config is one benchmark run.
type config struct {
	workload  string
	seed      uint64
	seconds   float64 // timed loop length; the loop always issues one op per cell
	trace     bool
	sizes     sizes
	start     time.Time // origin of the first set-up sample
	spansPath string    // where a traced run writes its spans
	log       io.Writer // failed ops are reported here
	// corrupt, when set, damages op i's output before its checks run; the
	// negative tests use it to prove that a wrong result counts as failed.
	corrupt func(op int, o *outcome)
}

// metricDef is one printed metric; BENCHMARK.json lists the same names,
// units and directions (bench_test.go holds the two together).
type metricDef struct {
	name, unit, better string
}

var endToEndMetrics = []metricDef{
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_p90", "ms", "lower"},
	{"ant_steps_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// runner issues a workload's ops and counts what failed.
type runner struct {
	cfg               config
	w                 workloadSpec
	order             []cell // the cells in their seeded rotation order
	cal               *calibrator
	attempted, failed int
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads(defaultSizes) {
		names = append(names, w.name)
	}
	return names
}

// newRunner derives the workload's inputs from the seed: the cell rotation
// here, the sweep tags and colony seeds from each op's index.
func newRunner(cfg config) (*runner, error) {
	for _, w := range workloads(cfg.sizes) {
		if w.name != cfg.workload {
			continue
		}
		return &runner{cfg: cfg, w: w, order: rotation(w, cfg.seed), cal: w.calibrator()}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
}

// rotation is the seeded order in which a workload's ops visit its cells.
func rotation(w workloadSpec, seed uint64) []cell {
	order := append([]cell(nil), w.cells...)
	rng.New(seed).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

func (r *runner) tag(kind string, i int) string {
	return fmt.Sprintf("bench/%s/%d/%s%d", r.w.name, r.cfg.seed, kind, i)
}

// issue times one op and checks it; only the entry-point call is timed.
func (r *runner) issue(c cell, tag string, op int, oracle bool) (outcome, time.Duration, error) {
	r.attempted++
	start := time.Now()
	o, err := c.run(tag)
	dt := time.Since(start)
	if err != nil {
		return o, dt, err
	}
	c.measure(&o)
	if r.cfg.corrupt != nil {
		r.cfg.corrupt(op, &o)
	}
	if err := c.check(o); err != nil {
		return o, dt, err
	}
	if oracle {
		if err := c.oracle(tag, o); err != nil {
			return o, dt, fmt.Errorf("oracle: %w", err)
		}
	}
	return o, dt, nil
}

func (r *runner) fail(c cell, tag string, err error) {
	r.failed++
	fmt.Fprintf(r.cfg.log, "bench: op %s (cell %s) failed: %v\n", tag, c.name, err)
}

// setup builds the workload's inputs and issues one untimed warm-up op per
// cell, sizes.setupReps times, sampling the reference kernel after each;
// the first repetition is measured from process start.
func (r *runner) setup() (timing, error) {
	var t timing
	for rep := 0; rep < r.cfg.sizes.setupReps; rep++ {
		start := time.Now()
		if rep == 0 {
			start = r.cfg.start
		}
		r.order = rotation(r.w, r.cfg.seed)
		for ci, c := range r.order {
			tag := r.tag("warm", ci)
			if _, _, err := r.issue(c, tag, -1, false); err != nil {
				r.fail(c, tag, err)
			}
		}
		t.add(time.Since(start), r.cal.next())
		if err := r.cal.sample(); err != nil {
			return t, err
		}
	}
	return t, nil
}

// timing is a list of timed intervals, each with the calibration point that
// follows it.
type timing struct {
	d     []time.Duration
	point []int
}

func (t *timing) add(d time.Duration, point int) {
	t.d = append(t.d, d)
	t.point = append(t.point, point)
}

// ms returns the intervals in ms, each multiplied by scale(point) unless
// scale is nil.
func (t timing) ms(scale func(point int) float64) []float64 {
	out := make([]float64, len(t.d))
	for i, d := range t.d {
		out[i] = float64(d) / 1e6
		if scale != nil {
			out[i] *= scale(t.point[i])
		}
	}
	return out
}

// loopStats is what one timed loop measured over its successful ops.
type loopStats struct {
	ops       timing
	antRounds int64
	digest    uint64
}

// loop issues ops until they have taken seconds in total and every cell ran
// at least once; a traced loop counts wall time instead, replays included.
// Op i runs cell i mod len(order) with inputs derived from i, so two loops of
// one seed issue the same op sequence. With tl set, every op is also traced
// and replayed.
func (r *runner) loop(seconds float64, tl *tracedLoop) loopStats {
	var st loopStats
	h := fnv.New64a()
	perCell := make([]int, len(r.order))
	start := time.Now()
	var issued time.Duration // every op's timed call, failed ones too
	spent := func() float64 {
		if tl != nil {
			return time.Since(start).Seconds()
		}
		return issued.Seconds()
	}
	for i := 0; i < len(r.order) || spent() < seconds; i++ {
		ci := i % len(r.order)
		c := r.order[ci]
		tag := r.tag("", i)
		oracle := r.w.oracleDue(perCell[ci])
		perCell[ci]++
		t0 := time.Now()
		o, dt, err := r.issue(c, tag, i, oracle)
		issued += dt
		if err == nil && tl != nil {
			err = tl.replay(i, c, tag, o, t0, dt, oracle)
		}
		point := r.cal.next()
		if err == nil && tl == nil && r.cal.due() {
			err = r.cal.sample()
		}
		if err != nil {
			r.fail(c, tag, err)
			continue
		}
		st.ops.add(dt, point)
		st.antRounds += o.antRounds
		digestOp(h, c, o)
	}
	st.digest = h.Sum64()
	return st
}

// report is one run's output.
type report struct {
	Type      string                 `json:"type"` // always "record"
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     int                    `json:"trace"`
	Host      host                   `json:"host"`
	Ops       int                    `json:"ops"` // successful ops of the timed loop
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Digest    string                 `json:"digest"` // FNV-1a over the timed loop's checked outputs
	Metrics   map[string]metricValue `json:"metrics"`
	// RefMs is the median reference-kernel duration the end-to-end times
	// were scaled by, and Raw holds those times unscaled.
	RefMs float64            `json:"ref_ms,omitempty"`
	Raw   map[string]float64 `json:"raw,omitempty"`
}

type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// host is the fingerprint stamped on every record.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	GOGC       string `json:"gogc"`
}

func fingerprint() host {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return host{runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), gogc}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// execute runs the configured workload and returns its report.
func execute(cfg config) (*report, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	setup, err := r.setup()
	if err != nil {
		return nil, err
	}
	rep := &report{Type: "record", Workload: cfg.workload, Seed: cfg.seed, Host: fingerprint()}
	var st loopStats
	if cfg.trace {
		rep.Trace = 1
		st, rep.Metrics, err = r.traced()
		if err != nil {
			return nil, err
		}
	} else {
		st = r.loop(cfg.seconds, nil)
		if err := r.cal.sample(); err != nil {
			return nil, err
		}
		rep.Metrics, rep.Raw = endToEnd(st, setup, r.cal.scale)
		rep.RefMs = median(r.cal.points) / 1e6
	}
	rep.Ops, rep.Attempted, rep.Failed = len(st.ops.d), r.attempted, r.failed
	rep.Digest = fmt.Sprintf("%016x", st.digest)
	return rep, nil
}

// endToEnd computes the end-to-end metrics, each time multiplied by scale
// to reference speed, and returns the unscaled times beside them.
func endToEnd(st loopStats, setup timing, scale func(point int) float64) (map[string]metricValue, map[string]float64) {
	steps := func(opMs []float64) float64 {
		total := 0.0
		for _, ms := range opMs {
			total += ms / 1e3
		}
		if total == 0 {
			return 0
		}
		return float64(st.antRounds) / total
	}
	rawOps, ops := st.ops.ms(nil), st.ops.ms(scale)
	raw := map[string]float64{
		"op_ms_p50":       quantile(rawOps, 0.5),
		"op_ms_p90":       quantile(rawOps, 0.9),
		"ant_steps_per_s": steps(rawOps),
		"setup_s":         median(setup.ms(nil)) / 1e3,
	}
	n := len(ops)
	return map[string]metricValue{
		"op_ms_p50":       {quantile(ops, 0.5), "ms", n},
		"op_ms_p90":       {quantile(ops, 0.9), "ms", n},
		"ant_steps_per_s": {steps(ops), "1/s", n},
		"setup_s":         {median(setup.ms(scale)) / 1e3, "s", len(setup.d)},
		"peak_rss_mb":     {peakRSSMB(), "MB", 1},
	}, raw
}

// peakRSSMB is the process's peak resident set in 10^6 bytes; Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return stats.Quantile(sorted, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// write prints the record line and then the result line.
func (rep *report) write(w io.Writer) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, map[string]value{}}
	for name, m := range rep.Metrics {
		result.Metrics[name] = value{m.Value, m.Unit}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	return enc.Encode(result)
}
