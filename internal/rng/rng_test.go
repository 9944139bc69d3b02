package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	t.Parallel()
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: sources with equal seeds diverged: %d != %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	t.Parallel()
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sources with different seeds produced %d/100 identical draws", same)
	}
}

func TestReseedRestartsStream(t *testing.T) {
	t.Parallel()
	s := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Reseed(7)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("draw %d after Reseed: got %d, want %d", i, got, first[i])
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	t.Parallel()
	s := New(99)
	for i := 0; i < 10; i++ {
		s.Uint64()
	}
	st := s.State()
	clone := &Source{x: st}
	for i := 0; i < 100; i++ {
		if got, want := clone.Uint64(), s.Uint64(); got != want {
			t.Fatalf("draw %d: restored source diverged", i)
		}
	}
}

func TestSplitDeterministicAndNonAdvancing(t *testing.T) {
	t.Parallel()
	parent := New(5)
	before := parent.State()
	c1 := parent.Split(3)
	c2 := parent.Split(3)
	if parent.State() != before {
		t.Fatal("Split advanced the parent stream")
	}
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("draw %d: equal split indices produced different streams", i)
		}
	}
}

func TestSplitChildrenIndependent(t *testing.T) {
	t.Parallel()
	parent := New(5)
	a := parent.Split(0)
	b := parent.Split(1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("adjacent split children shared %d/1000 draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	t.Parallel()
	s := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
				// The message is a constant string: formatting it with fmt
				// would put an fmt.Sprintf call (and fmt's allocations) on
				// the draw hot path, which hhlint's hotpathalloc forbids.
				if msg, ok := r.(string); !ok || msg != "rng: Intn called with non-positive n" {
					t.Fatalf("Intn(%d) panic = %#v, want the constant hot-path message", n, r)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestUint64nUniformity(t *testing.T) {
	t.Parallel()
	s := New(123)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from expectation %.0f by more than 5 sigma", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	t.Parallel()
	s := New(77)
	var sum float64
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		sum += f
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	t.Parallel()
	s := New(3)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if s.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !s.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	t.Parallel()
	s := New(13)
	const draws = 200000
	for _, p := range []float64{0.1, 0.25, 0.5, 0.9} {
		hits := 0
		for i := 0; i < draws; i++ {
			if s.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / draws
		sigma := math.Sqrt(p * (1 - p) / draws)
		if math.Abs(got-p) > 6*sigma {
			t.Errorf("Bernoulli(%v): frequency %v deviates more than 6 sigma", p, got)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	t.Parallel()
	s := New(21)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := s.PermInto32(make([]int32, n))
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPermIntoMatchesInvariant(t *testing.T) {
	t.Parallel()
	s := New(22)
	for _, n := range []int{0, 1, 2, 3, 5, 17, 100} {
		dst := make([]int32, n)
		// Poison the buffer to catch reliance on zero-initialization.
		for i := range dst {
			dst[i] = -1
		}
		s.PermInto32(dst)
		seen := make([]bool, n)
		for _, v := range dst {
			if v < 0 || int(v) >= n || seen[v] {
				t.Fatalf("PermInto32(%d) produced invalid permutation %v", n, dst)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	t.Parallel()
	s := New(23)
	const n, draws = 5, 50000
	counts := make([]int, n)
	dst := make([]int32, n)
	for i := 0; i < draws; i++ {
		counts[s.PermInto32(dst)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("PermInto32 first-element bucket %d: count %d vs expected %.0f", i, c, want)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	t.Parallel()
	s := New(31)
	xs := []int{10, 20, 30, 40, 50, 60, 70}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("Shuffle changed multiset: sum %d != %d", got, sum)
	}
}

// TestBinomialMoments checks the mean and the variance of Binomial on both
// of its paths: direct simulation up to 64 trials ({10, 0.5}, {50, 0.1}) and
// geometric skips above ({200, 0.3}, {1000, 0.02}, {5000, 0.001}). Each
// bound is 6 standard errors, so the ten checks together false-alarm with
// probability below 2e-8.
func TestBinomialMoments(t *testing.T) {
	t.Parallel()
	s := New(41)
	cases := []struct {
		n int
		p float64
	}{
		{10, 0.5}, {50, 0.1}, {200, 0.3}, {1000, 0.02}, {5000, 0.001},
	}
	const draws = 20000
	for _, tc := range cases {
		var sum, sumSq float64
		for i := 0; i < draws; i++ {
			v := float64(s.Binomial(tc.n, tc.p))
			if v < 0 || v > float64(tc.n) {
				t.Fatalf("Binomial(%d,%v) = %v out of range", tc.n, tc.p, v)
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / draws
		wantMean := float64(tc.n) * tc.p
		pq := tc.p * (1 - tc.p)
		wantVar := float64(tc.n) * pq
		sigma := math.Sqrt(wantVar)
		if math.Abs(mean-wantMean) > 6*sigma/math.Sqrt(draws) {
			t.Errorf("Binomial(%d,%v): mean %v, want %v", tc.n, tc.p, mean, wantMean)
		}
		// The sample variance's standard error is sqrt((μ4 - σ⁴)/draws),
		// with the binomial's fourth central moment μ4 = npq(1 + 3(n-2)pq).
		variance := sumSq/draws - mean*mean
		mu4 := wantVar * (1 + 3*float64(tc.n-2)*pq)
		if se := math.Sqrt((mu4 - wantVar*wantVar) / draws); math.Abs(variance-wantVar) > 6*se {
			t.Errorf("Binomial(%d,%v): variance %v, want %v (6 standard errors: %v)", tc.n, tc.p, variance, wantVar, 6*se)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	t.Parallel()
	s := New(43)
	if got := s.Binomial(0, 0.5); got != 0 {
		t.Fatalf("Binomial(0, .5) = %d, want 0", got)
	}
	if got := s.Binomial(10, 0); got != 0 {
		t.Fatalf("Binomial(10, 0) = %d, want 0", got)
	}
	if got := s.Binomial(10, 1); got != 10 {
		t.Fatalf("Binomial(10, 1) = %d, want 10", got)
	}
	if got := s.Binomial(-5, 0.5); got != 0 {
		t.Fatalf("Binomial(-5, .5) = %d, want 0", got)
	}
	// A skip beyond the int range must end the skip path, not wrap.
	if got := s.Binomial(100, 1e-300); got != 0 {
		t.Fatalf("Binomial(100, 1e-300) = %d, want 0", got)
	}
	before := s.State()
	if got := s.Binomial(100, math.NaN()); got != 0 || s.State() != before {
		t.Fatalf("Binomial(100, NaN) = %d (state moved %v), want 0 without drawing", got, s.State() != before)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	t.Parallel()
	s := New(53)
	const draws = 200000
	var sum, sumSq float64
	for i := 0; i < draws; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / draws
	variance := sumSq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("NormFloat64 mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("NormFloat64 variance = %v, want ~1", variance)
	}
}

func TestUint64BitBalance(t *testing.T) {
	t.Parallel()
	s := New(61)
	const draws = 10000
	ones := make([]int, 64)
	for i := 0; i < draws; i++ {
		v := s.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<uint(b)) != 0 {
				ones[b]++
			}
		}
	}
	for b, c := range ones {
		if math.Abs(float64(c)-draws/2) > 6*math.Sqrt(draws/4) {
			t.Errorf("bit %d set in %d/%d draws; generator is biased", b, c, draws)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= s.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink ^= s.Intn(1024)
	}
	_ = sink
}

func BenchmarkNormFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.NormFloat64()
	}
	_ = sink
}

func BenchmarkPermInto32_1024(b *testing.B) {
	s := New(1)
	dst := make([]int32, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.PermInto32(dst)
	}
}

// TestSplitIntoMatchesSplit pins the allocation-free variant to Split: both
// must derive the identical child stream, and SplitInto must not advance the
// parent.
func TestSplitIntoMatchesSplit(t *testing.T) {
	t.Parallel()
	parent := New(99)
	before := parent.State()
	for index := uint64(0); index < 50; index++ {
		want := parent.Split(index)
		var got Source
		parent.SplitInto(index, &got)
		if got.State() != want.State() {
			t.Fatalf("index %d: SplitInto state %v != Split state %v", index, got.State(), want.State())
		}
	}
	if parent.State() != before {
		t.Fatal("SplitInto advanced the parent stream")
	}
}
