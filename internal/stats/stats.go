// Package stats implements the statistical machinery the paper relies
// on: medians (the headline metric, §3.3) and their order-statistic
// confidence intervals, arbitrary quantiles, CDFs, boxplot five-number
// summaries, the coefficient of variation used for last-mile stability
// (§5), and the confidence-interval sample-size formula
// n = z²·p·(1−p)/ε² used to size per-country measurement campaigns.
// The Distribution interface (distribution.go) is the seam the figure
// kernels read through, whether a sample is held whole or sketched.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by computations that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Median returns the median of xs. It copies and sorts internally.
func Median(xs []float64) (float64, error) {
	return Quantile(xs, 0.5)
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the common default).
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q), nil
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Quantiles returns several quantiles of xs with a single sort.
func Quantiles(xs []float64, qs ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return QuantilesSorted(s, qs...)
}

// QuantilesSorted returns several quantiles of an already-sorted xs
// without copying or re-sorting — the zero-copy path for callers (the
// sharded measurement store) that maintain pre-sorted sample vectors.
func QuantilesSorted(xs []float64, qs ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q < 0 || q > 1 || math.IsNaN(q) {
			return nil, errors.New("stats: quantile out of [0,1]")
		}
		out[i] = quantileSorted(xs, q)
	}
	return out, nil
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs))), nil
}

// CoefficientOfVariation returns Cv = σ/μ, the last-mile stability
// metric of §5 (Figures 8 and 9). It fails on an empty set or a zero
// mean.
func CoefficientOfVariation(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	//lint:ignore floateq division guard — only an exactly-zero mean divides by zero
	if m == 0 {
		return 0, errors.New("stats: zero mean")
	}
	sd, err := StdDev(xs)
	if err != nil {
		return 0, err
	}
	return sd / m, nil
}

// FiveNum is a boxplot five-number summary plus the mean.
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	N                        int
}

// IQR returns the interquartile range Q3−Q1 — the paper's "box height"
// used to compare latency variation of peering types (Fig 12b/13b).
func (f FiveNum) IQR() float64 { return f.Q3 - f.Q1 }

// Summarize computes the five-number summary of xs.
func Summarize(xs []float64) (FiveNum, error) {
	if len(xs) == 0 {
		return FiveNum{}, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m, _ := Mean(s)
	return FiveNum{
		Min:    s[0],
		Q1:     quantileSorted(s, 0.25),
		Median: quantileSorted(s, 0.5),
		Q3:     quantileSorted(s, 0.75),
		Max:    s[len(s)-1],
		Mean:   m,
		N:      len(s),
	}, nil
}

// CDF is an empirical cumulative distribution function over a sorted
// sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs (copied and sorted).
func NewCDF(xs []float64) (CDF, error) {
	if len(xs) == 0 {
		return CDF{}, ErrEmpty
	}
	return CDF{sorted: SortedCopy(xs)}, nil
}

// CDFFromSorted builds an empirical CDF around xs without copying. The
// caller promises xs is sorted ascending and never mutated afterwards —
// the contract the measurement store's merged shard vectors satisfy.
func CDFFromSorted(xs []float64) (CDF, error) {
	if len(xs) == 0 {
		return CDF{}, ErrEmpty
	}
	return CDF{sorted: xs}, nil
}

// At returns P(X ≤ x).
func (c CDF) At(x float64) float64 {
	i := sort.SearchFloat64s(c.sorted, x)
	// Advance past equal values so At is right-continuous.
	//lint:ignore floateq exact match against stored (never recomputed) sample values
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// InverseAt returns the q-th quantile of the sample.
func (c CDF) InverseAt(q float64) float64 { return quantileSorted(c.sorted, q) }

// N returns the sample count.
func (c CDF) N() int { return len(c.sorted) }

// Series samples the CDF at n evenly spaced points between min and max
// of the sample, returning (x, P(X≤x)) pairs — the plottable curve.
func (c CDF) Series(n int) [][2]float64 {
	if n < 2 || len(c.sorted) == 0 {
		return nil
	}
	lo, hi := c.sorted[0], c.sorted[len(c.sorted)-1]
	out := make([][2]float64, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		out[i] = [2]float64{x, c.At(x)}
	}
	return out
}

// KolmogorovSmirnov returns the two-sample KS statistic: the maximum
// vertical distance between the empirical CDFs of xs and ys, in [0,1].
// The analyses use it to quantify how far apart two latency
// distributions are (platform comparison, protocol comparison) beyond
// eyeballing quantiles.
func KolmogorovSmirnov(xs, ys []float64) (float64, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return 0, ErrEmpty
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)
	var d float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		// Advance both CDFs past the next value, handling ties so equal
		// observations step the two curves together.
		v := math.Min(a[i], b[j])
		//lint:ignore floateq tie stepping over stored sample values — equal observations must move both CDFs together
		for i < len(a) && a[i] == v {
			i++
		}
		//lint:ignore floateq tie stepping over stored sample values — equal observations must move both CDFs together
		for j < len(b) && b[j] == v {
			j++
		}
		fa := float64(i) / float64(len(a))
		fb := float64(j) / float64(len(b))
		if diff := math.Abs(fa - fb); diff > d {
			d = diff
		}
	}
	return d, nil
}

// RequiredSampleSize returns the minimum number of measurements needed
// for the given z-score, population proportion p, and margin of error ε:
// n = z²·p·(1−p)/ε². With z=1.96 (95% confidence), p=0.5, ε=0.02 this
// yields 2401, matching the paper's ">2400 measurements per country".
func RequiredSampleSize(z, p, epsilon float64) int {
	if epsilon <= 0 {
		return 0
	}
	n := z * z * p * (1 - p) / (epsilon * epsilon)
	return int(math.Ceil(n))
}

// Welford is a streaming accumulator for count, mean and variance. The
// zero value is ready to use. It lets the measurement engine track
// per-probe statistics without retaining every sample.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Merge folds another accumulator into w using the parallel variance
// combination (Chan et al.), so per-shard summaries can be reduced to a
// global one without revisiting samples.
func (w *Welford) Merge(other *Welford) {
	if other == nil || other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *other
		return
	}
	n := w.n + other.n
	d := other.mean - w.mean
	w.m2 += other.m2 + d*d*float64(w.n)*float64(other.n)/float64(n)
	w.mean += d * float64(other.n) / float64(n)
	w.n = n
	if other.min < w.min {
		w.min = other.min
	}
	if other.max > w.max {
		w.max = other.max
	}
}

// WelfordFromMoments rebuilds an accumulator from previously extracted
// moments — the deserialization half of Moments. Round-tripping an
// accumulator through (Moments, WelfordFromMoments) is bit-exact, which
// the on-disk segment format relies on to reproduce store summaries
// identically after a reload.
func WelfordFromMoments(n int, mean, m2, min, max float64) Welford {
	return Welford{n: n, mean: mean, m2: m2, min: min, max: max}
}

// Moments extracts the accumulator's raw state (count, mean, sum of
// squared deviations, min, max) for serialization.
func (w *Welford) Moments() (n int, mean, m2, min, max float64) {
	return w.n, w.mean, w.m2, w.min, w.max
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean (0 for an empty accumulator).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance.
func (w *Welford) Variance() float64 {
	if w.n == 0 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Cv returns σ/μ, or 0 if the mean is zero or no data was added.
func (w *Welford) Cv() float64 {
	//lint:ignore floateq division guard — only an exactly-zero mean divides by zero
	if w.n == 0 || w.mean == 0 {
		return 0
	}
	return w.StdDev() / w.mean
}

// Min returns the smallest observation (0 when empty).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 when empty).
func (w *Welford) Max() float64 { return w.max }
