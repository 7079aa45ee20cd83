package stats

import (
	"math"
	"sort"
)

// Distribution is what a figure kernel reads from one group's samples.
// A kernel written once over it serves every representation: Sorted
// answers exactly from the full sample, a t-digest (internal/sketch)
// estimates from its centroids. Every method but N needs N() > 0.
type Distribution interface {
	// N is the number of observations.
	N() int
	// Quantile returns the q-th quantile, 0 ≤ q ≤ 1.
	Quantile(q float64) float64
	// Quantiles appends Quantile(q) for each q to dst; an ascending qs
	// is the cheap case.
	Quantiles(dst, qs []float64) []float64
	// OrderStat returns the r-th smallest observation, 1 ≤ r ≤ N.
	OrderStat(r int) float64
	// CDF returns the fraction of observations at or below x.
	CDF(x float64) float64
	// Curve returns the plottable empirical CDF.
	Curve() CDF
}

// Shifter is the constraint of a kernel that scores location shifts:
// a Distribution that compares itself against another of its own
// kind, so the type a kernel is given picks the method — exact for
// Sorted, a grid estimate for digests.
type Shifter[D any] interface {
	Distribution
	// Shift is the Mann-Whitney AUC P(after > this) + ½·P(after = this):
	// 0.5 for no shift, 1 for a complete upward one.
	Shift(after D) float64
}

// Sorted is a sample sorted ascending: the exact Distribution. Its
// answers are those of the slice functions of this package on the same
// vector (QuantilesSorted, CDF.At), bit for bit.
type Sorted []float64

var _ Shifter[Sorted] = Sorted(nil)

// SortedCopy returns xs copied and sorted ascending — the canonical
// form a kernel's answer cannot tell sample orders apart in.
func SortedCopy(xs []float64) Sorted {
	s := append(Sorted(nil), xs...)
	sort.Float64s(s)
	return s
}

// N returns the sample count.
func (s Sorted) N() int { return len(s) }

// Quantile returns the type-7 q-th quantile.
func (s Sorted) Quantile(q float64) float64 { return quantileSorted(s, q) }

// Quantiles appends the type-7 quantile at each q to dst.
func (s Sorted) Quantiles(dst, qs []float64) []float64 {
	for _, q := range qs {
		dst = append(dst, quantileSorted(s, q))
	}
	return dst
}

// OrderStat returns s[r-1], the r-th smallest value itself.
func (s Sorted) OrderStat(r int) float64 { return s[r-1] }

// CDF returns P(X ≤ x) over the sample.
func (s Sorted) CDF(x float64) float64 { return CDF{sorted: s}.At(x) }

// Curve returns the empirical CDF over the whole sample; it aliases s.
func (s Sorted) Curve() CDF { return CDF{sorted: s} }

// medianCITail is the probability MedianCI's interval may miss the
// median on each side: a 95 % two-sided interval.
const medianCITail = 0.025

// MedianCIRank returns the lower rank j of the distribution-free 95 %
// confidence interval [x_(j), x_(n+1−j)] for the median of n
// observations: the largest j with P(Bin(n, ½) < j) ≤ 0.025. The
// interval then misses the population median with probability at most
// 2·P(Bin(n, ½) < j) ≤ 5 %, whatever the (continuous) distribution —
// nothing is resampled or assumed. Below n = 6 no rank qualifies, and
// it returns 1: the interval falls back to [min, max].
func MedianCIRank(n int) int {
	if n < 6 {
		return 1
	}
	nf := float64(n)
	lgN, _ := math.Lgamma(nf + 1)
	// below(j) = P(Bin(n, ½) < j), summed from its largest term, k = j−1,
	// down: each term is the one above times k/(n−k+1), and below the
	// median they shrink fast enough that a few √n terms reach full
	// precision.
	below := func(j int) float64 {
		k := j - 1
		lgK, _ := math.Lgamma(float64(k) + 1)
		lgNK, _ := math.Lgamma(nf - float64(k) + 1)
		p := math.Exp(lgN - lgK - lgNK - nf*math.Ln2)
		var sum float64
		for ; k >= 0 && p > sum*1e-17; k-- {
			sum += p
			p *= float64(k) / float64(n-k+1)
		}
		return sum
	}
	// Start at the normal approximation and step to the exact rank;
	// below(1) = 2⁻ⁿ < 0.025 keeps j ≥ 1.
	j := max(1, int(nf/2-0.98*math.Sqrt(nf)))
	for below(j+1) <= medianCITail {
		j++
	}
	for below(j) > medianCITail {
		j--
	}
	return j
}

// MedianCI returns the 95 % confidence interval for the median of d,
// [x_(j), x_(n+1−j)] with j = MedianCIRank(n), as d's order
// statistics: Sorted returns the sample values themselves, a digest its
// estimates at the same ranks. An empty d yields (0, 0).
func MedianCI[D Distribution](d D) (lo, hi float64) {
	n := d.N()
	if n == 0 {
		return 0, 0
	}
	j := MedianCIRank(n)
	return d.OrderStat(j), d.OrderStat(n + 1 - j)
}
