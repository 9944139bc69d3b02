package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/experiment"
	"github.com/gmrl/househunt/internal/metrics"
	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/sim"
	"github.com/gmrl/househunt/internal/trace"
)

// perLayerMetrics are the traced run's metrics. Each is listed in README.md
// with the end-to-end metric it should move and on which workload.
var perLayerMetrics = []metricDef{
	{"trace_overhead", "ratio", "lower"},
	{"core.compile_us", "us", "lower"},
	{"sim.new_batch_us", "us", "lower"},
	{"sim.new_batch_alloc_kb", "kB", "lower"},
	{"experiment.residual_ms", "ms", "lower"},
	{"sim.ant_rounds", "count", "lower"},
	{"sim.run_alloc_mb", "MB", "lower"},
	{"sim.lane_setup_ms", "ms", "lower"},
	{"sim.shard_speedup", "ratio", "higher"},
	{"go.gc_cpu_fraction", "ratio", "lower"},
	{"go.alloc_mb_per_op", "MB", "lower"},
	{"rng.table_draw_ns", "ns", "lower"},
	{"rng.recip_draw_ns", "ns", "lower"},
	{"rng.recip_mul_draw_ns", "ns", "lower"},
	{"sim.match_ns_per_slot", "ns", "lower"},
	{"sim.match_success_ratio", "ratio", "higher"},
	{"trace.stream_overhead", "ratio", "lower"},
	{"core.scalar_over_batch", "ratio", "higher"},
	{"algo.build_us", "us", "lower"},
	{"sim.step_ns_per_ant", "ns", "lower"},
	{"sim.step_traced_ns_per_ant", "ns", "lower"},
	{"core.census_ns_per_ant", "ns", "lower"},
	{"cell.simple.ns_per_ant_round", "ns", "lower"},
	{"cell.simple-stream.ns_per_ant_round", "ns", "lower"},
	{"cell.adaptive.ns_per_ant_round", "ns", "lower"},
	{"cell.quality.ns_per_ant_round", "ns", "lower"},
	{"cell.approxn.ns_per_ant_round", "ns", "lower"},
	{"cell.noisy.ns_per_ant_round", "ns", "lower"},
	{"cell.optimal.ns_per_ant_round", "ns", "lower"},
	{"cell.quorum.ns_per_ant_round", "ns", "lower"},
	{"cell.simple-crash10.ns_per_ant_round", "ns", "lower"},
	{"cell.simple-targeted.ns_per_ant_round", "ns", "lower"},
}

// span is one timed call at a layer boundary. Spans of one op share Op;
// Parent is the causing span's ID (0 for an op or a probe).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Op     int                `json:"op"` // -1 for probes
	Name   string             `json:"name"`
	Cell   string             `json:"cell"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) open(name, cell string, op, parent int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Cell: cell,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) close(id int, counts map[string]float64) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	s.Counts = counts
	return time.Duration(s.End - s.Start)
}

// tracedLoop replays traced ops through the layers and collects the
// per-layer samples.
type tracedLoop struct {
	r       *runner
	tr      *tracer
	samples map[string][]float64
	// firstPass is the exact ant-round count of ops 0..len(cells)-1, one op
	// per cell, which depends on the seed alone.
	firstPass       int64
	active, success uint64 // recruit counters pooled over the scalar replays
}

func (tl *tracedLoop) add(name string, v float64) { tl.samples[name] = append(tl.samples[name], v) }

// traced runs the untraced loop, then the traced loop over the same ops,
// then the kernel probes, and returns the traced loop's stats with the
// per-layer metrics.
func (r *runner) traced() (loopStats, map[string]metricValue, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := r.loop(0.4*r.cfg.seconds, nil)
	runtime.ReadMemStats(&m1)

	tl := &tracedLoop{r: r, tr: &tracer{t0: time.Now()}, samples: map[string][]float64{}}
	st := tl.r.loop(0.5*r.cfg.seconds, tl)
	if err := tl.probes(); err != nil {
		return st, nil, err
	}

	tl.add("trace_overhead", median(st.ops.ms(nil))/median(plain.ops.ms(nil)))
	tl.add("go.gc_cpu_fraction", m1.GCCPUFraction)
	tl.add("go.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(len(plain.ops.d)))
	tl.add("sim.ant_rounds", float64(tl.firstPass))
	if tl.active > 0 {
		tl.add("sim.match_success_ratio", float64(tl.success)/float64(tl.active))
	}
	out := map[string]metricValue{}
	for _, m := range perLayerMetrics {
		xs := tl.samples[m.name]
		if len(xs) == 0 {
			return st, nil, fmt.Errorf("per-layer metric %s has no samples", m.name)
		}
		out[m.name] = metricValue{median(xs), m.unit, len(xs)}
	}
	err := writeJSON(r.cfg.spansPath, struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Host     host   `json:"host"`
		Spans    []span `json:"spans"`
	}{r.w.name, r.cfg.seed, fingerprint(), tl.tr.spans})
	if err != nil {
		return st, nil, fmt.Errorf("writing spans: %w", err)
	}
	return st, out, nil
}

// replay records op i as a span and replays it through the layer entry
// points beneath it; the replay must reproduce the op's output exactly.
func (tl *tracedLoop) replay(i int, c cell, tag string, o outcome, t0 time.Time, dt time.Duration, oracle bool) error {
	opID := len(tl.tr.spans) + 1
	tl.tr.spans = append(tl.tr.spans, span{ID: opID, Op: i, Name: "op", Cell: c.name,
		Start: t0.Sub(tl.tr.t0).Nanoseconds(), End: t0.Sub(tl.tr.t0).Nanoseconds() + dt.Nanoseconds(),
		Counts: map[string]float64{"ant_rounds": float64(o.antRounds)}})
	firstPass := i < len(tl.r.order)
	seeds := c.seeds(tag)

	if c.kind == opEmigration {
		sr, err := tl.replayScalar(i, opID, c, seeds[0], c.traced, c.maxRounds)
		if err != nil {
			return err
		}
		if got, want := fromCore(sr.res), fromHH(o.hh); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("replay %+v differs from househunt.Run %+v", got, want)
		}
		if c.traced && !sameHistory(sr.rounds, o) {
			return fmt.Errorf("replayed trace differs from househunt.Run's history")
		}
		tl.add("experiment.residual_ms", float64(dt-sr.total)/1e6)
		if firstPass {
			tl.firstPass += int64(sr.res.Rounds) * int64(c.n)
		}
		if !oracle {
			return nil
		}
		br, err := tl.replayBatch(i, opID, c, seeds, c.maxRounds)
		if err != nil {
			return err
		}
		if got := fromCore(br.results[0]); !reflect.DeepEqual(got, fromCore(sr.res)) {
			return fmt.Errorf("batch replay %+v differs from the scalar replay %+v", got, fromCore(sr.res))
		}
		tl.add("core.scalar_over_batch", float64(sr.total)/float64(br.total))
		if err := tl.recordBatch(i, opID, c, seeds, br); err != nil {
			return err
		}
		return tl.shardSpeedup(i, opID, c, seeds, c.maxRounds, br)
	}

	br, err := tl.replayBatch(i, opID, c, seeds, c.maxRounds)
	if err != nil {
		return err
	}
	if c.kind == opColony {
		if !reflect.DeepEqual(br.results, o.results) {
			return fmt.Errorf("replay %+v differs from core.RunBatch %+v", br.results, o.results)
		}
	} else {
		if pt := aggregate(c, br.results); !reflect.DeepEqual(pt, o.point) {
			return fmt.Errorf("replay aggregate %+v differs from the op's point %+v", pt, o.point)
		}
		tl.add("cell."+c.name+".ns_per_ant_round", float64(br.run)/float64(br.antRounds))
	}
	if err := tl.recordBatch(i, opID, c, seeds, br); err != nil {
		return err
	}
	tl.add("experiment.residual_ms", float64(dt-br.total)/1e6)
	if firstPass {
		tl.firstPass += br.antRounds
	}
	if i%8 == 0 {
		if err := tl.shardSpeedup(i, opID, c, seeds, c.maxRounds, br); err != nil {
			return err
		}
	}
	if c.kind == opStream {
		if err := tl.streamOverhead(i, opID, c, tag, o.point, dt); err != nil {
			return err
		}
	}
	if oracle {
		return tl.scalarOracle(i, opID, c, seeds)
	}
	return nil
}

// batchReplay is one replay through core.CompileForBatch, sim.NewBatch and
// (*sim.Batch).Run.
type batchReplay struct {
	batch                  *sim.Batch
	results                []core.Result
	compile, newBatch, run time.Duration
	total                  time.Duration
	antRounds              int64
	newBatchBytes          uint64 // allocated by sim.NewBatch
	runBytes               uint64 // allocated by (*sim.Batch).Run
}

func (tl *tracedLoop) replayBatch(op, parent int, c cell, seeds []uint64, maxRounds int, opts ...sim.BatchOption) (batchReplay, error) {
	var br batchReplay
	cfg := c.runConfig()
	id := tl.tr.open("core.CompileForBatch", c.name, op, parent)
	prog, ok, reason := core.CompileForBatch(c.algo, cfg)
	br.compile = tl.tr.close(id, nil)
	if !ok {
		return br, fmt.Errorf("core.CompileForBatch declined cell %s: %s", c.name, reason)
	}
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id = tl.tr.open("sim.NewBatch", c.name, op, parent)
	b, err := sim.NewBatch(cfg.Env, prog, cfg.N, opts...)
	br.newBatch = tl.tr.close(id, nil)
	if err != nil {
		return br, fmt.Errorf("sim.NewBatch: %w", err)
	}
	runtime.ReadMemStats(&m1)
	id = tl.tr.open("sim.Batch.Run", c.name, op, parent)
	raw, err := b.Run(seeds, maxRounds, 1)
	if err != nil {
		tl.tr.close(id, nil)
		return br, fmt.Errorf("sim.Batch.Run: %w", err)
	}
	for _, r := range raw {
		br.antRounds += int64(r.Rounds) * int64(c.n)
	}
	br.run = tl.tr.close(id, map[string]float64{"ant_rounds": float64(br.antRounds), "colonies": float64(len(seeds))})
	runtime.ReadMemStats(&m2)
	br.batch = b
	br.total = br.compile + br.newBatch + br.run
	br.newBatchBytes, br.runBytes = m1.TotalAlloc-m0.TotalAlloc, m2.TotalAlloc-m1.TotalAlloc
	br.results = make([]core.Result, len(raw))
	for i, r := range raw {
		// The conversion core.RunBatch applies to each replicate.
		br.results[i] = core.Result{
			Solved: r.Solved, Winner: r.Winner, WinnerQuality: r.WinnerQuality, Rounds: r.Rounds,
			FinalCensus: core.Census{Committed: r.Committed, Decided: r.Decided, Faulty: r.Faulty, Total: c.n - r.Faulty},
			Algorithm:   c.algo.Name(),
		}
	}
	return br, nil
}

// recordBatch adds the batch-layer samples of an op's replay, and times lane
// set-up: the replay's engine and seeds again, stopped after one round.
func (tl *tracedLoop) recordBatch(op, parent int, c cell, seeds []uint64, br batchReplay) error {
	id := tl.tr.open("sim.Batch.Run/1-round", c.name, op, parent)
	_, err := br.batch.Run(seeds, 1, 1)
	laneSetup := tl.tr.close(id, nil)
	if err != nil {
		return fmt.Errorf("sim.Batch.Run: %w", err)
	}
	tl.add("sim.lane_setup_ms", float64(laneSetup)/1e6)
	tl.add("core.compile_us", float64(br.compile)/1e3)
	tl.add("sim.new_batch_us", float64(br.newBatch)/1e3)
	tl.add("sim.new_batch_alloc_kb", float64(br.newBatchBytes)/1e3)
	tl.add("sim.run_alloc_mb", float64(br.runBytes)/1e6)
	return nil
}

// shardSpeedup re-runs a batch replay on one worker: T(1 worker)/T(default).
func (tl *tracedLoop) shardSpeedup(op, parent int, c cell, seeds []uint64, maxRounds int, br batchReplay) error {
	one, err := tl.replayBatch(op, parent, c, seeds, maxRounds, sim.WithBatchWorkers(1))
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(one.results, br.results) {
		return fmt.Errorf("one-worker replay differs from the default-worker replay")
	}
	tl.add("sim.shard_speedup", float64(one.run)/float64(br.run))
	return nil
}

// streamOverhead times MeasureConvergence on the streamed op's tag: the same
// sweep without telemetry, which must report the same point.
func (tl *tracedLoop) streamOverhead(op, parent int, c cell, tag string, streamed experiment.ConvergencePoint, dt time.Duration) error {
	id := tl.tr.open("experiment.MeasureConvergence", c.name, op, parent)
	pt, err := experiment.MeasureConvergence(c.algo, c.runConfig(), c.reps, tag)
	plain := tl.tr.close(id, nil)
	if err != nil {
		return fmt.Errorf("experiment.MeasureConvergence: %w", err)
	}
	if !reflect.DeepEqual(pt, streamed) {
		return fmt.Errorf("unstreamed point %+v differs from the streamed %+v", pt, streamed)
	}
	tl.add("trace.stream_overhead", float64(dt)/float64(plain))
	return nil
}

// scalarOracle replays a batch op's first colonies on the scalar engine,
// untraced and once traced, against a batch replay of the same seeds. The
// colony-1m oracle stops both engines after sizes.truncRounds rounds.
func (tl *tracedLoop) scalarOracle(op, parent int, c cell, seeds []uint64) error {
	rounds := c.maxRounds
	if c.kind == opColony {
		rounds = tl.r.cfg.sizes.truncRounds
	}
	if len(seeds) > 4 {
		seeds = seeds[:4]
	}
	br, err := tl.replayBatch(op, parent, c, seeds, rounds)
	if err != nil {
		return err
	}
	var scalar time.Duration
	for j, seed := range seeds {
		sr, err := tl.replayScalar(op, parent, c, seed, false, rounds)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(sr.res, br.results[j]) {
			return fmt.Errorf("seed %d: scalar replay %+v differs from the batch replay %+v", seed, sr.res, br.results[j])
		}
		scalar += sr.total
	}
	tl.add("core.scalar_over_batch", float64(scalar)/float64(br.total))
	sr, err := tl.replayScalar(op, parent, c, seeds[0], true, rounds)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(sr.res, br.results[0]) {
		return fmt.Errorf("seed %d: traced scalar replay differs from the batch replay", seeds[0])
	}
	return nil
}

// scalarReplay is one colony replayed through Algorithm.Build, sim.New and
// the (*sim.Engine).Step / core.TakeCensus loop core.Run and core.RunTraced
// drive (stability window 1).
type scalarReplay struct {
	res    core.Result
	rounds []trace.Round // traced replays only
	total  time.Duration
}

func (tl *tracedLoop) replayScalar(op, parent int, c cell, seed uint64, traced bool, maxRounds int) (scalarReplay, error) {
	var sr scalarReplay
	env := c.env()
	id := tl.tr.open("algo.Build", c.name, op, parent)
	agents, err := c.algo.Build(c.n, env, rng.New(seed).Split(2))
	if err == nil && c.wrap != nil {
		agents, err = c.wrap.WrapAgents(seed, agents)
	}
	build := tl.tr.close(id, nil)
	if err != nil {
		return sr, fmt.Errorf("building agents: %w", err)
	}
	reg := metrics.NewRegistry()
	id = tl.tr.open("sim.New", c.name, op, parent)
	eng, err := sim.New(env, agents, sim.WithSeed(seed), sim.WithMetrics(reg))
	newEngine := tl.tr.close(id, nil)
	if err != nil {
		return sr, fmt.Errorf("sim.New: %w", err)
	}
	var htr *trace.Trace
	if traced {
		htr = trace.New(c.k)
	}
	id = tl.tr.open("sim.Engine.Step+core.TakeCensus", c.name, op, parent)
	var step, census, record time.Duration
	sr.res = core.Result{Algorithm: c.algo.Name()}
	for eng.Round() < maxRounds {
		t0 := time.Now()
		if err := eng.Step(); err != nil {
			tl.tr.close(id, nil)
			return sr, fmt.Errorf("sim.Engine.Step: %w", err)
		}
		t1 := time.Now()
		cen := core.TakeCensus(agents, c.k)
		t2 := time.Now()
		step += t1.Sub(t0)
		census += t2.Sub(t1)
		if traced {
			if err := htr.RecordRound(eng.Round(), eng.Counts(), cen.Committed); err != nil {
				tl.tr.close(id, nil)
				return sr, fmt.Errorf("trace.RecordRound: %w", err)
			}
			record += time.Since(t2)
		}
		if w, ok := cen.Converged(env); ok {
			sr.res.Solved, sr.res.Winner, sr.res.WinnerQuality = true, w, env.Quality(w)
			break
		}
	}
	sr.res.Rounds = eng.Round()
	sr.res.FinalCensus = core.TakeCensus(agents, c.k)
	antRounds := float64(sr.res.Rounds) * float64(c.n)
	loop := tl.tr.close(id, map[string]float64{"rounds": float64(sr.res.Rounds),
		"step_ns": float64(step), "census_ns": float64(census), "record_ns": float64(record)})
	sr.total = build + newEngine + loop
	if traced {
		sr.rounds = htr.Rounds()
		tl.add("sim.step_traced_ns_per_ant", float64(step+record)/antRounds)
	} else {
		tl.add("sim.step_ns_per_ant", float64(step)/antRounds)
	}
	tl.add("algo.build_us", float64(build)/1e3)
	tl.add("core.census_ns_per_ant", float64(census)/antRounds)
	tl.active += reg.Counter("engine.recruit.active").Value()
	tl.success += reg.Counter("engine.recruit.success").Value()
	return sr, nil
}

func sameHistory(rounds []trace.Round, o outcome) bool {
	if len(rounds) != len(o.history) {
		return false
	}
	for i, r := range rounds {
		h := o.history[i]
		if r.Round != h.Round || !reflect.DeepEqual(r.Populations, h.Populations) || !reflect.DeepEqual(r.Commitments, h.Commitments) {
			return false
		}
	}
	return true
}

// probes measures the kernels directly and fills in the layers the
// workload's own ops did not reach: the sweep cells it does not run and the
// streaming-telemetry overhead.
func (tl *tracedLoop) probes() error {
	s := tl.r.cfg.sizes
	n := tl.r.order[0].n
	kernels := kernelProbes(n, s.probeDraws)
	for rep := 0; rep < 5; rep++ {
		for _, p := range kernels {
			id := tl.tr.open("probe."+p.name, "", -1, 0)
			v := p.run(rng.New(tl.r.cfg.seed + uint64(rep)))
			tl.tr.close(id, nil)
			tl.add(p.name, v)
		}
	}
	for _, c := range sweepCells(s) {
		metric := "cell." + c.name + ".ns_per_ant_round"
		for rep := 0; len(tl.samples[metric]) < 3; rep++ {
			tag := tl.r.tag("probe/"+c.name+"/", rep)
			br, err := tl.replayBatch(-1, 0, c, c.seeds(tag), c.maxRounds)
			if err != nil {
				return err
			}
			tl.add(metric, float64(br.run)/float64(br.antRounds))
		}
		if c.kind != opStream {
			continue
		}
		for rep := 0; len(tl.samples["trace.stream_overhead"]) < 3; rep++ {
			tag := tl.r.tag("probe/stream/", rep)
			start := time.Now()
			pt, _, err := experiment.MeasureConvergenceStreamed(c.algo, c.runConfig(), c.reps, tag)
			if err != nil {
				return fmt.Errorf("experiment.MeasureConvergenceStreamed: %w", err)
			}
			if err := tl.streamOverhead(-1, 0, c, tag, pt, time.Since(start)); err != nil {
				return err
			}
		}
	}
	return nil
}

// kernelProbe times one draw or matcher kernel; run returns ns per draw or
// per slot.
type kernelProbe struct {
	name string
	run  func(src *rng.Source) float64
}

// sink keeps the probe loops' results live.
var sink int

// kernelProbes builds the kernel probes at colony size n: the count-ratio
// threshold table (as large as the batch engine ever builds it), the
// reciprocal kernels behind count/n and quality·count/n, and Algorithm 1's
// matcher over n recruiting slots, half of them active. The draw probes walk
// the counts with a fixed stride so consecutive draws touch distinct entries.
func kernelProbes(n, draws int) []kernelProbe {
	m := min(n, 1<<16)
	table := make([]rng.Threshold, m+1)
	for c := range table {
		table[c] = rng.NewThreshold(float64(c) / float64(m))
	}
	recip := rng.NewRecip(n)
	perDraw := func(start time.Time, hits int) float64 {
		el := time.Since(start)
		sink += hits
		return float64(el) / float64(draws)
	}
	tableDraw := func(src *rng.Source) float64 {
		step, c, hits := 7919%(m+1), 0, 0
		start := time.Now()
		for i := 0; i < draws; i++ {
			if table[c].Draw(src) {
				hits++
			}
			if c += step; c > m {
				c -= m + 1
			}
		}
		return perDraw(start, hits)
	}
	recipDraw := func(src *rng.Source) float64 {
		step, c, hits := 7919%(n+1), 0, 0
		start := time.Now()
		for i := 0; i < draws; i++ {
			if recip.Threshold(c).Draw(src) {
				hits++
			}
			if c += step; c > n {
				c -= n + 1
			}
		}
		return perDraw(start, hits)
	}
	recipMulDraw := func(src *rng.Source) float64 {
		step, c, hits := 7919%(n+1), 0, 0
		start := time.Now()
		for i := 0; i < draws; i++ {
			if recip.ThresholdMul(0.75, c).Draw(src) {
				hits++
			}
			if c += step; c > n {
				c -= n + 1
			}
		}
		return perDraw(start, hits)
	}
	match := func(src *rng.Source) float64 {
		var matcher sim.AlgorithmOneMatcher
		matcher.Reserve(n)
		active := make([]bool, n)
		for i := range active {
			active[i] = src.Bernoulli(0.5)
		}
		capturedBy := make([]int32, n)
		succeeded := make([]bool, n)
		rounds := max(1, draws/n)
		start := time.Now()
		for r := 0; r < rounds; r++ {
			matcher.Match(n, active, src, capturedBy, succeeded)
		}
		el := time.Since(start)
		sink += len(matcher.Captures())
		return float64(el) / float64(rounds*n)
	}
	return []kernelProbe{
		{"rng.table_draw_ns", tableDraw},
		{"rng.recip_draw_ns", recipDraw},
		{"rng.recip_mul_draw_ns", recipMulDraw},
		{"sim.match_ns_per_slot", match},
	}
}

// writeJSON writes v to path, creating its directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
