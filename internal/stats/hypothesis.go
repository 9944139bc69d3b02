package stats

import (
	"math"
	"sort"
)

// This file holds the hypothesis tests the statistical oracles use: the
// chi-square goodness-of-fit and homogeneity tests, the two-sample
// Kolmogorov–Smirnov test and Fisher's exact test. Each returns a p-value, so
// a caller pins its false-alarm rate by comparing against a fixed level.

// ChiSquareSF returns P[X >= x] for X ~ χ²(dof), the upper-tail p-value of a
// chi-square statistic. dof must be positive.
func ChiSquareSF(x float64, dof int) float64 {
	if x <= 0 {
		return 1
	}
	return gammaQ(float64(dof)/2, x/2)
}

// gammaQ is the regularized upper incomplete gamma function Q(a, x) for
// a, x > 0: the power series for P = 1 - Q below x = a+1, Lentz's continued
// fraction for Q above it (each converges fast on its side).
func gammaQ(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	front := math.Exp(a*math.Log(x) - x - lg)
	if x < a+1 {
		sum, term := 1/a, 1/a
		for ap := a + 1; math.Abs(term) > math.Abs(sum)*1e-16; ap++ {
			term *= x / ap
			sum += term
		}
		return math.Max(0, 1-sum*front)
	}
	const tiny = 1e-300
	b := x + 1 - a
	c, d := 1/tiny, 1/b
	h := d
	for i := 1.0; i < 10000; i++ {
		an := -i * (i - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-16 {
			break
		}
	}
	return front * h
}

// ChiSquareGOF is Pearson's goodness-of-fit test of observed category counts
// against expected counts (same length, summing to the same total).
// Categories whose expected count is below minExpected are pooled into one
// bin (folded into the smallest kept bin if the pool itself stays below
// minExpected), so the statistic's χ² approximation holds. It returns the
// statistic, its degrees of freedom and the p-value; with fewer than two bins
// after pooling there is nothing to test and the p-value is 1. An observation in a category of zero expected
// count is impossible under the null and returns p = 0.
func ChiSquareGOF(observed []int, expected []float64, minExpected float64) (stat float64, dof int, p float64) {
	idx := make([]int, len(expected))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return expected[idx[a]] < expected[idx[b]] })
	type bin struct{ obs, exp float64 }
	var bins []bin
	var pool bin
	for _, i := range idx {
		if expected[i] <= 0 {
			if observed[i] > 0 {
				return math.Inf(1), 0, 0
			}
			continue
		}
		if expected[i] < minExpected {
			pool.obs += float64(observed[i])
			pool.exp += expected[i]
			continue
		}
		bins = append(bins, bin{float64(observed[i]), expected[i]})
	}
	if pool.exp >= minExpected || len(bins) == 0 {
		bins = append(bins, pool)
	} else {
		// bins is sorted by expected count, so bins[0] is the smallest kept.
		bins[0].obs += pool.obs
		bins[0].exp += pool.exp
	}
	if len(bins) < 2 {
		return 0, 0, 1
	}
	for _, b := range bins {
		d := b.obs - b.exp
		stat += d * d / b.exp
	}
	dof = len(bins) - 1
	return stat, dof, ChiSquareSF(stat, dof)
}

// ChiSquareHomogeneity tests whether two samples of category counts (same
// categories, same length) come from one distribution: the 2×m contingency
// table's chi-square test. Columns expecting fewer than minExpected counts in
// the smaller sample are pooled as in ChiSquareGOF.
func ChiSquareHomogeneity(a, b []int, minExpected float64) (stat float64, dof int, p float64) {
	var na, nb float64
	for i := range a {
		na += float64(a[i])
		nb += float64(b[i])
	}
	if na == 0 || nb == 0 {
		return 0, 0, 1
	}
	share := math.Min(na, nb) / (na + nb)
	idx := make([]int, len(a))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool { return a[idx[x]]+b[idx[x]] < a[idx[y]]+b[idx[y]] })
	type col struct{ a, b float64 }
	var cols []col
	var pool col
	for _, i := range idx {
		if a[i]+b[i] == 0 {
			continue
		}
		if float64(a[i]+b[i])*share < minExpected {
			pool.a += float64(a[i])
			pool.b += float64(b[i])
			continue
		}
		cols = append(cols, col{float64(a[i]), float64(b[i])})
	}
	if (pool.a+pool.b)*share >= minExpected || len(cols) == 0 {
		cols = append(cols, pool)
	} else {
		cols[0].a += pool.a
		cols[0].b += pool.b
	}
	if len(cols) < 2 {
		return 0, 0, 1
	}
	total := na + nb
	for _, c := range cols {
		t := c.a + c.b
		ea, eb := t*na/total, t*nb/total
		stat += (c.a-ea)*(c.a-ea)/ea + (c.b-eb)*(c.b-eb)/eb
	}
	dof = len(cols) - 1
	return stat, dof, ChiSquareSF(stat, dof)
}

// KSTwoSample is the two-sample Kolmogorov–Smirnov test: d is the largest
// gap between the two empirical CDFs and p its asymptotic p-value from the
// Kolmogorov distribution, with Stephens' small-sample correction. On
// discrete data (ties) the test is conservative: the true false-alarm rate
// is at most the nominal one.
func KSTwoSample(a, b []float64) (d, p float64) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 1
	}
	xs := append([]float64(nil), a...)
	ys := append([]float64(nil), b...)
	sort.Float64s(xs)
	sort.Float64s(ys)
	na, nb := float64(len(xs)), float64(len(ys))
	i, j := 0, 0
	for i < len(xs) && j < len(ys) {
		// Step past every copy of the smaller value in both samples before
		// comparing, so ties never open a spurious gap.
		v := math.Min(xs[i], ys[j])
		for i < len(xs) && xs[i] == v {
			i++
		}
		for j < len(ys) && ys[j] == v {
			j++
		}
		d = math.Max(d, math.Abs(float64(i)/na-float64(j)/nb))
	}
	ne := na * nb / (na + nb)
	sq := math.Sqrt(ne)
	return d, kolmogorovQ((sq + 0.12 + 0.11/sq) * d)
}

// kolmogorovQ is the Kolmogorov distribution's survival function
// Q(λ) = 2 Σ_{j≥1} (-1)^{j-1} exp(-2 j² λ²).
func kolmogorovQ(lambda float64) float64 {
	if lambda < 0.2 {
		return 1
	}
	sum, sign := 0.0, 2.0
	for j := 1.0; j <= 100; j++ {
		term := sign * math.Exp(-2*j*j*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-16*sum {
			break
		}
		sign = -sign
	}
	return math.Min(1, math.Max(0, sum))
}

// FisherExactGreater is the one-sided Fisher exact test of H1: p1 > p2 for
// x1 events in n1 trials against x2 events in n2 trials. It returns
// P[X >= x1] for X hypergeometric with the observed margins, the exact
// p-value: rejecting at level α falsely alarms with probability at most α
// whenever p1 <= p2.
func FisherExactGreater(x1, n1, x2, n2 int) float64 {
	k := x1 + x2
	lo := max(0, k-n2)
	hi := min(k, n1)
	lc := func(n, r int) float64 {
		a, _ := math.Lgamma(float64(n + 1))
		b, _ := math.Lgamma(float64(r + 1))
		c, _ := math.Lgamma(float64(n - r + 1))
		return a - b - c
	}
	denom := lc(n1+n2, k)
	p := 0.0
	for x := max(x1, lo); x <= hi; x++ {
		p += math.Exp(lc(n1, x) + lc(n2, k-x) - denom)
	}
	return math.Min(1, p)
}
