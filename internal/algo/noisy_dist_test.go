package algo

import (
	"fmt"
	"math"
	"testing"

	"github.com/gmrl/househunt/internal/core"
	"github.com/gmrl/househunt/internal/nest"
	"github.com/gmrl/househunt/internal/rng"
	"github.com/gmrl/househunt/internal/stats"
	"github.com/gmrl/househunt/internal/workload"
)

// polarNormFloat64 is the polar (Marsaglia) method rng.Source.NormFloat64
// used before the ziggurat, kept as the reference the ziggurat's colonies are
// compared against.
func polarNormFloat64(src *rng.Source) float64 {
	for {
		u := 2*src.Float64() - 1
		v := 2*src.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// polarRelativeCounter is nest.RelativeNoiseCounter drawing its noise with
// polarNormFloat64.
type polarRelativeCounter struct{ sigma float64 }

func (r polarRelativeCounter) Estimate(count, _ int, src *rng.Source) int {
	v := float64(count) * (1 + polarNormFloat64(src)*r.sigma)
	if v < 0 {
		return 0
	}
	return int(math.Round(v))
}

func (r polarRelativeCounter) Name() string { return fmt.Sprintf("polar(σ=%g)", r.sigma) }

// noisyDistFalseAlarm is the pinned family-wise false-alarm rate of
// TestNoisyZigguratMatchesPolarReference: one test per cell, each at
// noisyDistFalseAlarm / cells (Bonferroni).
const noisyDistFalseAlarm = 1e-3

// TestNoisyZigguratMatchesPolarReference checks that replacing the polar
// normal sampler with the ziggurat did not change what noisy colonies do. For
// σ ∈ {0.2, 0.4, 0.8} and n ∈ {256, 1024}, the batch engine runs 600 Noisy
// colonies counting through nest.RelativeNoiseCounter (the ziggurat) and 600
// through polarRelativeCounter, on disjoint seeds, and a two-sample KS test
// compares their convergence rounds (the budget for unsolved runs).
func TestNoisyZigguratMatchesPolarReference(t *testing.T) {
	t.Parallel()
	const reps = 600
	env, err := workload.Binary(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	sigmas, ns := []float64{0.2, 0.4, 0.8}, []int{256, 1024}
	level := noisyDistFalseAlarm / float64(len(sigmas)*len(ns))
	for _, sigma := range sigmas {
		for _, n := range ns {
			sigma, n := sigma, n
			t.Run(fmt.Sprintf("σ=%g/n%d", sigma, n), func(t *testing.T) {
				t.Parallel()
				rounds := func(a Noisy) []float64 {
					seeds := make([]uint64, reps)
					for r := range seeds {
						seeds[r] = workload.SeedFor("normal-dist/"+a.Name(), n, env.K(), r+1)
					}
					res, ok, err := core.RunBatch(a, core.RunConfig{N: n, Env: env}, seeds)
					if err != nil || !ok {
						t.Fatalf("%s: RunBatch ok=%v err=%v", a.Name(), ok, err)
					}
					out := make([]float64, reps)
					for r, x := range res {
						out[r] = float64(x.Rounds)
					}
					return out
				}
				zig := rounds(Noisy{Counter: nest.RelativeNoiseCounter{Sigma: sigma}})
				polar := rounds(Noisy{Counter: polarRelativeCounter{sigma}})
				d, p := stats.KSTwoSample(zig, polar)
				summary := fmt.Sprintf("rounds mean %.2f (ziggurat) vs %.2f (polar), KS d=%.4f p=%.3g",
					stats.Mean(zig), stats.Mean(polar), d, p)
				if p < level {
					t.Fatalf("ziggurat and polar samplers give different colonies at level %.2g: %s", level, summary)
				}
				t.Log(summary)
			})
		}
	}
}
