package househunt

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/trace"
)

func TestRunQuickstart(t *testing.T) {
	t.Parallel()
	res, err := Run(
		WithColonySize(128),
		WithBinaryNests(4, 2),
		WithAlgorithm(AlgorithmSimple),
		WithSeed(42),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatalf("quickstart did not converge: %+v", res)
	}
	if res.Winner < 1 || res.Winner > 2 {
		t.Fatalf("winner %d is not one of the good nests", res.Winner)
	}
	if res.WinnerQuality != 1 {
		t.Fatalf("winner quality %v", res.WinnerQuality)
	}
	if !strings.Contains(res.Summary(), "solved") {
		t.Fatalf("summary: %s", res.Summary())
	}
}

func TestRunRequiredOptions(t *testing.T) {
	t.Parallel()
	if _, err := Run(WithBinaryNests(2, 1)); err == nil {
		t.Fatal("missing colony size accepted")
	}
	if _, err := Run(WithColonySize(10)); err == nil {
		t.Fatal("missing nests accepted")
	}
	if _, err := Run(WithColonySize(10), WithNests(0, 0)); err == nil {
		t.Fatal("all-bad environment accepted")
	}
	if _, err := Run(WithColonySize(10), WithBinaryNests(2, 1), WithAlgorithm("bogus")); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestOptionValidation(t *testing.T) {
	t.Parallel()
	bad := []Option{
		WithColonySize(0),
		WithNests(),
		WithBinaryNests(0, 0),
		WithBinaryNests(2, 3),
		WithMaxRounds(-1),
		WithStabilityWindow(-1),
		WithCountNoise(-0.5),
		WithAssessmentFlips(1.5),
		WithEncounterRateSensing(0, 1),
		WithCrashFaults(-0.1, 10),
		WithByzantineAnts(2),
		WithJitter(1.0, 0),
		WithJitter(0.1, -1),
		WithAdaptiveSchedule(-1, 0),
		WithQuorum(0.5, 3, 0.2),
		WithQuorum(2, -1, 0.2),
		WithQuorum(2, 3, 1.5),
		WithColonySizeError(-0.1),
		WithColonySizeError(1),
	}
	for i, opt := range bad {
		cfg := Config{}
		if err := opt(&cfg); err == nil {
			t.Errorf("bad option %d accepted", i)
		}
	}
}

// TestFloatOptionsRejectNaNAndInf pins that every float option fails on NaN
// and ±Inf, which no range check written with < or > catches. Each option is
// first shown to accept an in-range value, so the failures come from the
// value. WithNests reaches its check through New's sim.NewEnvironment.
func TestFloatOptionsRejectNaNAndInf(t *testing.T) {
	t.Parallel()
	options := []struct {
		name string
		ok   float64
		opt  func(x float64) Option
	}{
		{"WithNests", 0.5, func(x float64) Option { return WithNests(1, x) }},
		{"WithCountNoise", 0.1, func(x float64) Option { return WithCountNoise(x) }},
		{"WithAssessmentFlips", 0.1, func(x float64) Option { return WithAssessmentFlips(x) }},
		{"WithEncounterRateSensing", 1, func(x float64) Option { return WithEncounterRateSensing(4, x) }},
		{"WithCrashFaults", 0.1, func(x float64) Option { return WithCrashFaults(x, 10) }},
		{"WithByzantineAnts", 0.05, func(x float64) Option { return WithByzantineAnts(x) }},
		{"WithIdleAnts", 0.1, func(x float64) Option { return WithIdleAnts(x, 10) }},
		{"WithJitter", 0.1, func(x float64) Option { return WithJitter(x, 0) }},
		{"WithAdaptiveSchedule", 2, func(x float64) Option { return WithAdaptiveSchedule(4, x) }},
		{"WithQuorum multiplier", 2, func(x float64) Option { return WithQuorum(x, 3, 0.25) }},
		{"WithQuorum docility", 0.5, func(x float64) Option { return WithQuorum(2, 3, x) }},
		{"WithColonySizeError", 0.1, func(x float64) Option { return WithColonySizeError(x) }},
	}
	for _, o := range options {
		if _, err := New(WithColonySize(64), WithBinaryNests(2, 1), o.opt(o.ok)); err != nil {
			t.Errorf("%s(%v) rejected: %v", o.name, o.ok, err)
		}
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if _, err := New(WithColonySize(64), WithBinaryNests(2, 1), o.opt(x)); err == nil {
				t.Errorf("%s(%v) accepted", o.name, x)
			}
		}
	}
}

// TestNewRejectsInvalidFaults pins that New validates the fault options
// together, through the faults.Spec they lower to: each option is valid
// alone, but the combination or window is not, and New must say so before
// any engine runs.
func TestNewRejectsInvalidFaults(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"fractions sum past 1", []Option{WithCrashFaults(0.7, 10), WithByzantineAnts(0.7)}, "fault fractions sum to 1.4 > 1"},
		{"three fractions sum past 1", []Option{WithCrashFaults(0.4, 10), WithByzantineAnts(0.3), WithIdleAnts(0.4, 10)}, "> 1"},
		{"negative crash window", []Option{WithCrashFaults(0.1, -5)}, "negative fault window (crash -5"},
		{"negative idle window", []Option{WithIdleAnts(0.1, -5)}, "negative fault window (crash 0, sleep -5)"},
	}
	for _, tc := range cases {
		opts := append([]Option{WithColonySize(100), WithBinaryNests(4, 2)}, tc.opts...)
		_, err := New(opts...)
		if err == nil || !strings.HasPrefix(err.Error(), "househunt: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New error %v, want a househunt error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestAllAlgorithmsRun(t *testing.T) {
	t.Parallel()
	algos := []Algorithm{
		AlgorithmOptimal, AlgorithmSimple, AlgorithmAdaptive,
		AlgorithmQualityAware, AlgorithmQuorum, AlgorithmApproxN,
	}
	for _, a := range algos {
		a := a
		t.Run(string(a), func(t *testing.T) {
			t.Parallel()
			res, err := Run(
				WithColonySize(96),
				WithBinaryNests(3, 2),
				WithAlgorithm(a),
				WithSeed(7),
			)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Solved {
				t.Fatalf("%s did not converge", a)
			}
		})
	}
}

func TestSpreaderNeedsSingleGood(t *testing.T) {
	t.Parallel()
	if _, err := Run(
		WithColonySize(64),
		WithBinaryNests(3, 2),
		WithAlgorithm(AlgorithmSpreader),
	); err == nil {
		t.Fatal("spreader with two good nests accepted")
	}
	res, err := Run(
		WithColonySize(64),
		WithBinaryNests(3, 1),
		WithAlgorithm(AlgorithmSpreader),
		WithSeed(3),
	)
	if err != nil || !res.Solved {
		t.Fatalf("spreader run: %v, %+v", err, res)
	}
}

func TestDeterminism(t *testing.T) {
	t.Parallel()
	run := func() *Result {
		res, err := Run(
			WithColonySize(200),
			WithBinaryNests(6, 3),
			WithAlgorithm(AlgorithmOptimal),
			WithSeed(99),
		)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.Winner != b.Winner {
		t.Fatalf("equal seeds diverged: %+v vs %+v", a, b)
	}
}

func TestTracingExports(t *testing.T) {
	t.Parallel()
	res, err := Run(
		WithColonySize(80),
		WithBinaryNests(3, 1),
		WithAlgorithm(AlgorithmSimple),
		WithSeed(5),
		WithTracing(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Traced() {
		t.Fatal("traced run reports untraced")
	}
	hist := res.History()
	if len(hist) != res.Rounds {
		t.Fatalf("history %d rounds, result %d", len(hist), res.Rounds)
	}
	total := 0
	for _, p := range hist[0].Populations {
		total += p
	}
	if total != 80 {
		t.Fatalf("history populations sum %d, want 80", total)
	}
	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "round,pop0") {
		t.Fatalf("csv header: %q", csv.String()[:40])
	}
	var js bytes.Buffer
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), "populations") {
		t.Fatal("json export missing populations")
	}
	if plot := res.RenderPlot(40, 10); !strings.Contains(plot, "legend") {
		t.Fatalf("plot: %q", plot)
	}
}

func TestUntracedExportsFail(t *testing.T) {
	t.Parallel()
	res, err := Run(
		WithColonySize(32),
		WithBinaryNests(2, 1),
		WithSeed(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traced() {
		t.Fatal("untraced run reports traced")
	}
	if err := res.WriteCSV(&bytes.Buffer{}); err == nil {
		t.Fatal("CSV export on untraced run accepted")
	}
	if err := res.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Fatal("JSON export on untraced run accepted")
	}
	if res.RenderPlot(0, 0) != "" {
		t.Fatal("plot on untraced run non-empty")
	}
	if res.History() != nil {
		t.Fatal("history on untraced run non-nil")
	}
}

func TestNoiseForcesSimple(t *testing.T) {
	t.Parallel()
	if _, err := Run(
		WithColonySize(50),
		WithBinaryNests(2, 1),
		WithAlgorithm(AlgorithmOptimal),
		WithCountNoise(0.1),
	); err == nil {
		t.Fatal("noise with optimal accepted")
	}
	res, err := Run(
		WithColonySize(150),
		WithBinaryNests(3, 2),
		WithCountNoise(0.2),
		WithSeed(8),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("noisy run did not converge")
	}
	if !strings.Contains(res.Algorithm, "noisy") {
		t.Fatalf("algorithm = %q, want noisy variant", res.Algorithm)
	}
}

func TestEncounterSensingRuns(t *testing.T) {
	t.Parallel()
	res, err := Run(
		WithColonySize(150),
		WithBinaryNests(2, 1),
		WithEncounterRateSensing(64, 8),
		WithSeed(9),
		WithMaxRounds(4000),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("encounter-rate sensing run did not converge")
	}
}

func TestFaultsAndJitterViaFacade(t *testing.T) {
	t.Parallel()
	res, err := Run(
		WithColonySize(200),
		WithBinaryNests(4, 2),
		WithCrashFaults(0.1, 30),
		WithByzantineAnts(0.05),
		WithJitter(0.1, 3),
		WithSeed(13),
		WithMaxRounds(6000),
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultyAnts == 0 {
		t.Fatal("no faulty ants recorded despite fault options")
	}
}

func TestQualityLadderViaFacade(t *testing.T) {
	t.Parallel()
	res, err := Run(
		WithColonySize(256),
		WithNests(0.2, 0.5, 0.95),
		WithAlgorithm(AlgorithmQualityAware),
		WithSeed(17),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("quality ladder did not converge")
	}
	if res.WinnerQuality < 0.5 {
		t.Fatalf("winner quality %v suspiciously low", res.WinnerQuality)
	}
}

func TestQuorumViaFacade(t *testing.T) {
	t.Parallel()
	res, err := Run(
		WithColonySize(240),
		WithBinaryNests(4, 2),
		WithAlgorithm(AlgorithmQuorum),
		WithQuorum(2.0, 3, 0.25),
		WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("quorum facade run did not converge")
	}
	if res.Winner != 1 && res.Winner != 2 {
		t.Fatalf("quorum winner %d is not a good nest", res.Winner)
	}
}

// runReference runs the colony's lowered configuration through the scalar
// reference runner, core.Run, traced into cfg.Trace when the colony is, and
// converts the outcome with the same engine labels as got so the two compare
// whole.
func runReference(t *testing.T, colony *Colony, got *Result) *Result {
	t.Helper()
	algorithm, cfg, err := colony.lower()
	if err != nil {
		t.Fatal(err)
	}
	if colony.cfg.traced {
		cfg.Trace = trace.New(cfg.Env.K())
	}
	res, err := core.Run(algorithm, cfg)
	if err != nil {
		t.Fatalf("scalar reference: %v", err)
	}
	return newResult(res, cfg.Trace, got.Engine, got.EngineReason)
}

// assertMatchesReference checks a facade result against the scalar reference
// on the same configuration: every public field, the history, and the CSV
// and JSON export bytes of traced runs.
func assertMatchesReference(t *testing.T, colony *Colony, got *Result) {
	t.Helper()
	want := runReference(t, colony, got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("facade result diverged from the scalar reference:\ngot  %+v\nwant %+v", got, want)
	}
	if !got.Traced() {
		return
	}
	if !reflect.DeepEqual(got.History(), want.History()) {
		t.Fatal("history diverged from the traced core.Run")
	}
	for _, export := range []func(*Result, io.Writer) error{(*Result).WriteCSV, (*Result).WriteJSON} {
		var a, b bytes.Buffer
		if err := export(got, &a); err != nil {
			t.Fatal(err)
		}
		if err := export(want, &b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("export bytes diverged from the traced core.Run:\ngot  %.200s\nwant %.200s", a.String(), b.String())
		}
	}
}

// TestRunBatchMatchesScalarReference pins the facade's engine routing: every
// algorithm, plain and traced, with and without fault options, a stability
// window and a budget too small to converge, runs on the batch engine and
// reproduces core.Run, traced or not, on the same configuration exactly.
func TestRunBatchMatchesScalarReference(t *testing.T) {
	t.Parallel()
	algos := []Algorithm{
		AlgorithmOptimal, AlgorithmOptimalLiteral, AlgorithmSimple,
		AlgorithmAdaptive, AlgorithmQualityAware, AlgorithmSpreader,
		AlgorithmQuorum, AlgorithmApproxN,
	}
	variants := []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"crash", []Option{WithCrashFaults(0.1, 30)}},
		{"byzantine", []Option{WithByzantineAnts(0.05)}},
		{"idle", []Option{WithIdleAnts(0.1, 30)}},
		{"window3", []Option{WithStabilityWindow(3)}},
		{"budget", []Option{WithMaxRounds(6)}},
	}
	for _, a := range algos {
		nests := WithBinaryNests(4, 2)
		if a == AlgorithmSpreader {
			nests = WithBinaryNests(4, 1)
		}
		for _, v := range variants {
			for _, traced := range []bool{false, true} {
				a, v, traced := a, v, traced
				name := fmt.Sprintf("%s/%s/traced=%v", a, v.name, traced)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					for _, seed := range []uint64{1, 7, 42} {
						opts := append([]Option{
							WithColonySize(96), nests, WithAlgorithm(a), WithSeed(seed),
						}, v.opts...)
						if traced {
							opts = append(opts, WithTracing())
						}
						colony, err := New(opts...)
						if err != nil {
							t.Fatal(err)
						}
						got, err := colony.Run()
						if err != nil {
							t.Fatalf("seed %d: %v", seed, err)
						}
						if got.Engine != "batch" || got.EngineReason != "" {
							t.Fatalf("seed %d: engine %q (%s), want batch", seed, got.Engine, got.EngineReason)
						}
						if v.name == "budget" && got.Solved {
							t.Fatalf("seed %d: solved within a 6-round budget", seed)
						}
						assertMatchesReference(t, colony, got)
					}
				})
			}
		}
	}
}

// TestRunScalarOnlyOptions pins the fallback: jittered colonies and
// environments above the batch lanes' nest limit report the scalar engine
// with CompileForBatch's named reason, solve, and still match the scalar
// reference, traced or not.
func TestRunScalarOnlyOptions(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name   string
		opts   []Option
		reason string
	}{
		{"jitter", []Option{WithJitter(0.1, 2)}, core.ReasonWrapperScalarOnly},
		{"jitter+crash", []Option{WithJitter(0.1, 2), WithCrashFaults(0.1, 30)}, core.ReasonWrapperScalarOnly},
		{"256 nests", []Option{WithColonySize(1024), WithBinaryNests(256, 2), WithAlgorithm(AlgorithmOptimal)},
			"environment has 256 nests, above the batch lanes' one-byte nest-id limit (sim.MaxBatchNests = 255)"},
	}
	for _, tc := range cases {
		for _, traced := range []bool{false, true} {
			opts := append([]Option{
				WithColonySize(64), WithBinaryNests(3, 2), WithSeed(11), WithMaxRounds(4000),
			}, tc.opts...)
			if traced {
				opts = append(opts, WithTracing())
			}
			colony, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := colony.Run()
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if got.Engine != "scalar" || got.EngineReason != tc.reason {
				t.Fatalf("%s: engine %q (%s), want scalar (%s)", tc.name, got.Engine, got.EngineReason, tc.reason)
			}
			if !got.Solved {
				t.Fatalf("%s: colony did not solve in %d rounds", tc.name, got.Rounds)
			}
			assertMatchesReference(t, colony, got)
		}
	}
}

// TestRunInvalidConfigFailsOnBothEngines pins that routing cannot turn a
// configuration error into a result: the batch engine declines a spreader
// colony with two good nests, and the facade and the scalar reference both
// fail on it.
func TestRunInvalidConfigFailsOnBothEngines(t *testing.T) {
	t.Parallel()
	colony, err := New(WithColonySize(64), WithBinaryNests(3, 2), WithAlgorithm(AlgorithmSpreader))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := colony.Run(); err == nil {
		t.Fatal("facade accepted spreader with two good nests")
	}
	algorithm, cfg, err := colony.lower()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := core.RunBatch(algorithm, cfg, []uint64{cfg.Seed}); ok || err != nil {
		t.Fatalf("batch engine: ok=%v err=%v, want a decline", ok, err)
	}
	if _, err := core.Run(algorithm, cfg); err == nil {
		t.Fatal("core.Run accepted spreader with two good nests")
	}
}

func TestApproxNViaFacade(t *testing.T) {
	t.Parallel()
	res, err := Run(
		WithColonySize(200),
		WithBinaryNests(3, 2),
		WithAlgorithm(AlgorithmApproxN),
		WithColonySizeError(0.4),
		WithSeed(6),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solved {
		t.Fatal("approxn facade run did not converge")
	}
}
