package rng

import "math"

// The normal sampler is Marsaglia and Tsang's ziggurat ("The Ziggurat Method
// for Generating Random Variables", J. Stat. Software 5(8), 2000) with 128
// layers of equal area zigV under the standard normal density's unnormalized
// form f(x) = exp(−x²/2). Layer 127 is the bottom rectangle, of width zigR;
// layer 1 is the top one, capping the peak; layer 0 is the base strip: the
// bottom rectangle's foot plus the whole tail beyond zigR, treated as a
// rectangle of height f(zigR) and width zigV/f(zigR).
const (
	zigLayers = 128
	zigR      = 3.442619855899
	zigV      = 9.91256303526217e-3
	// zigUnit is 2⁵³, the range of the uniform integer an attempt draws.
	zigUnit = 1 << 53
)

// The ziggurat tables, filled once by init. For layer i, zigW[i]·2⁵³ is its
// width xᵢ and zigF[i] = f(xᵢ) the density at that edge (zigF[0] = 1, the
// peak, which tops layer 1). zigK[i] is the fast-path bound: an attempt
// whose uniform j lies below it lands inside the next layer up's width,
// where the whole rectangle lies under the curve (layer 0: inside zigR;
// layer 1: never, since no layer lies above it).
var (
	zigK [zigLayers]uint64
	zigW [zigLayers]float64
	zigF [zigLayers]float64
)

func init() {
	f := func(x float64) float64 { return math.Exp(-0.5 * x * x) }
	base := zigV / f(zigR) // the base strip's width as a rectangle
	zigK[0] = uint64(zigR / base * zigUnit)
	zigW[0] = base / zigUnit
	zigF[0] = 1
	zigW[zigLayers-1] = zigR / zigUnit
	zigF[zigLayers-1] = f(zigR)
	x := zigR
	for i := zigLayers - 2; i >= 1; i-- {
		// Layer i+1, of width x, spans heights f(x) to f(x)+zigV/x; layer
		// i's edge is where the density reaches that top.
		up := math.Sqrt(-2 * math.Log(zigV/x+f(x)))
		zigK[i+1] = uint64(up / x * zigUnit)
		zigW[i] = up / zigUnit
		zigF[i] = f(up)
		x = up
	}
}

// NormFloat64 returns a standard normal sample by the 128-layer ziggurat.
// Each attempt takes one word: the layer from bits 0–6, the sign from bit 7
// and a 53-bit uniform j from bits 11–63, scaled to the layer's width. About
// 97% of attempts return there, from one word and two table reads. The rest
// test the layer's wedge against exp(−x²/2) with one more word, or, in the
// base strip beyond zigR, draw the tail by Marsaglia's exponential method;
// a rejected wedge point starts a new attempt. The sign is applied as a bit,
// not a branch: a branch on it would mispredict half the time.
//
// The count-perception hook calls it once per ant per count reading, on the
// batch engine's per-ant observe path.
//
//hh:hotpath
//hh:floatok a normal deviate is float by definition; its consumers (the perception hooks) are float fallbacks already
func (s *Source) NormFloat64() float64 {
	for {
		u := s.Uint64()
		i := u & (zigLayers - 1)
		j := u >> 11
		sign := (u & 0x80) << 56
		if j < zigK[i] {
			// j < 2⁵³, so the int64 conversion is exact and cheaper than
			// converting the uint64.
			return math.Float64frombits(math.Float64bits(float64(int64(j))*zigW[i]) | sign)
		}
		if x, ok := s.normSlow(i, j); ok {
			return math.Float64frombits(math.Float64bits(x) | sign)
		}
	}
}

// normSlow finishes an attempt that missed NormFloat64's fast path in layer
// i with uniform j: it returns the magnitude and true on acceptance, or false
// when the point falls in the layer's wedge above the curve.
//
//hh:hotpath
//hh:floatok the ziggurat's wedge and tail tests, reached by about 3% of attempts
func (s *Source) normSlow(i, j uint64) (float64, bool) {
	if i == 0 {
		// Tail beyond zigR: x = −ln(U₁)/zigR is accepted when
		// −2·ln(U₂) ≥ x². 1 − Float64() lies in (0, 1], so the logs are
		// finite.
		for {
			x := -math.Log(1-s.Float64()) * (1 / zigR)
			y := -math.Log(1 - s.Float64())
			if y+y >= x*x {
				return zigR + x, true
			}
		}
	}
	x := float64(int64(j)) * zigW[i]
	return x, zigF[i]+s.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-0.5*x*x)
}
