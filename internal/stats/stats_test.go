package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1}, 1},
		{[]float64{1, 3}, 2},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{-5, 0, 5}, 0},
	}
	for _, c := range cases {
		got, err := Median(c.xs)
		if err != nil || got != c.want {
			t.Errorf("Median(%v) = %v, %v; want %v", c.xs, got, err, c.want)
		}
	}
	if _, err := Median(nil); err != ErrEmpty {
		t.Errorf("empty median err = %v", err)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Median(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 0}, {0.25, 2.5}, {0.5, 5}, {0.75, 7.5}, {1, 10},
	} {
		got, err := Quantile(xs, c.q)
		if err != nil || math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := Quantile(xs, q); err == nil {
			t.Errorf("Quantile(%v) should fail", q)
		}
	}
}

func TestQuantilesBatch(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	got, err := Quantiles(xs, 0, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Errorf("Quantiles = %v", got)
	}
	if _, err := Quantiles(nil, 0.5); err != ErrEmpty {
		t.Error("empty Quantiles should fail")
	}
	if _, err := Quantiles(xs, 2); err == nil {
		t.Error("out-of-range q should fail")
	}
}

func TestQuantileMonotonic(t *testing.T) {
	f := func(raw []float64) bool {
		xs := filterFinite(raw)
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v, err := Quantile(xs, q)
			if err != nil || v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m, err := Mean(xs)
	if err != nil || m != 5 {
		t.Errorf("Mean = %v, %v", m, err)
	}
	sd, err := StdDev(xs)
	if err != nil || sd != 2 {
		t.Errorf("StdDev = %v, %v", sd, err)
	}
	if _, err := Mean(nil); err != ErrEmpty {
		t.Error("empty mean should fail")
	}
	if _, err := StdDev(nil); err != ErrEmpty {
		t.Error("empty stddev should fail")
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	cv, err := CoefficientOfVariation([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil || math.Abs(cv-0.4) > 1e-9 {
		t.Errorf("Cv = %v, %v", cv, err)
	}
	if _, err := CoefficientOfVariation([]float64{0, 0}); err == nil {
		t.Error("zero mean should fail")
	}
	if _, err := CoefficientOfVariation(nil); err == nil {
		t.Error("empty should fail")
	}
	// Constant samples have zero variation.
	cv, err = CoefficientOfVariation([]float64{5, 5, 5})
	if err != nil || cv != 0 {
		t.Errorf("constant Cv = %v, %v", cv, err)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{7, 15, 36, 39, 40, 41})
	if err != nil {
		t.Fatal(err)
	}
	if s.Min != 7 || s.Max != 41 || s.N != 6 {
		t.Errorf("min/max/n = %v/%v/%v", s.Min, s.Max, s.N)
	}
	if math.Abs(s.Median-37.5) > 1e-9 {
		t.Errorf("median = %v", s.Median)
	}
	if s.IQR() <= 0 || s.Q1 >= s.Q3 {
		t.Errorf("quartiles: %v %v", s.Q1, s.Q3)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Error("empty summarize should fail")
	}
}

func TestSummarizeOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := filterFinite(raw)
		if len(xs) == 0 {
			return true
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDF(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 2, 3, 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.At(0); got != 0 {
		t.Errorf("At(0) = %v", got)
	}
	if got := c.At(2); got != 0.6 {
		t.Errorf("At(2) = %v", got)
	}
	if got := c.At(10); got != 1 {
		t.Errorf("At(10) = %v", got)
	}
	if got := c.At(100); got != 1 {
		t.Errorf("At(100) = %v", got)
	}
	if c.N() != 5 {
		t.Errorf("N = %d", c.N())
	}
	if _, err := NewCDF(nil); err != ErrEmpty {
		t.Error("empty CDF should fail")
	}
}

func TestCDFSeries(t *testing.T) {
	c, _ := NewCDF([]float64{0, 5, 10})
	s := c.Series(11)
	if len(s) != 11 {
		t.Fatalf("series len = %d", len(s))
	}
	if s[0][0] != 0 || s[10][0] != 10 {
		t.Errorf("series x range = %v..%v", s[0][0], s[10][0])
	}
	if s[10][1] != 1 {
		t.Errorf("series should end at probability 1, got %v", s[10][1])
	}
	for i := 1; i < len(s); i++ {
		if s[i][1] < s[i-1][1] {
			t.Errorf("series not monotone at %d", i)
		}
	}
	if got := c.Series(1); got != nil {
		t.Error("series with n<2 should be nil")
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64, probes []float64) bool {
		xs := filterFinite(raw)
		if len(xs) == 0 {
			return true
		}
		c, err := NewCDF(xs)
		if err != nil {
			return false
		}
		ps := filterFinite(probes)
		sort.Float64s(ps)
		prev := 0.0
		for _, p := range ps {
			v := c.At(p)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRequiredSampleSize(t *testing.T) {
	// The paper: 95% confidence (z=1.96), ε=2%, p=0.5 → >2400.
	n := RequiredSampleSize(1.96, 0.5, 0.02)
	if n != 2401 {
		t.Errorf("sample size = %d, want 2401", n)
	}
	if RequiredSampleSize(1.96, 0.5, 0) != 0 {
		t.Error("zero epsilon should yield 0")
	}
	// Smaller margin → more samples.
	if RequiredSampleSize(1.96, 0.5, 0.01) <= n {
		t.Error("tighter margin should need more samples")
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*10 + 50
		w.Add(xs[i])
	}
	m, _ := Mean(xs)
	sd, _ := StdDev(xs)
	if math.Abs(w.Mean()-m) > 1e-9 {
		t.Errorf("welford mean %v vs %v", w.Mean(), m)
	}
	if math.Abs(w.StdDev()-sd) > 1e-9 {
		t.Errorf("welford sd %v vs %v", w.StdDev(), sd)
	}
	cv, _ := CoefficientOfVariation(xs)
	if math.Abs(w.Cv()-cv) > 1e-9 {
		t.Errorf("welford cv %v vs %v", w.Cv(), cv)
	}
	if w.N() != 1000 {
		t.Errorf("N = %d", w.N())
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if w.Min() != lo || w.Max() != hi {
		t.Errorf("min/max = %v/%v, want %v/%v", w.Min(), w.Max(), lo, hi)
	}
}

func TestWelfordZeroValue(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.Variance() != 0 || w.Cv() != 0 {
		t.Error("zero-value Welford should report zeros")
	}
	w.Add(5)
	if w.N() != 1 || w.Mean() != 5 || w.Variance() != 0 {
		t.Errorf("single sample: n=%d mean=%v var=%v", w.N(), w.Mean(), w.Variance())
	}
	if w.Min() != 5 || w.Max() != 5 {
		t.Error("single-sample min/max")
	}
}

func filterFinite(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}

func TestKolmogorovSmirnov(t *testing.T) {
	same := []float64{1, 2, 3, 4, 5}
	d, err := KolmogorovSmirnov(same, same)
	if err != nil || d != 0 {
		t.Errorf("identical samples: d = %v, err %v", d, err)
	}
	// Disjoint supports → statistic 1.
	d, err = KolmogorovSmirnov([]float64{1, 2, 3}, []float64{10, 11, 12})
	if err != nil || d != 1 {
		t.Errorf("disjoint samples: d = %v, err %v", d, err)
	}
	// A located shift gives an intermediate value.
	d, _ = KolmogorovSmirnov([]float64{1, 2, 3, 4}, []float64{3, 4, 5, 6})
	if d <= 0 || d >= 1 {
		t.Errorf("shifted samples: d = %v", d)
	}
	if _, err := KolmogorovSmirnov(nil, same); err != ErrEmpty {
		t.Error("empty first sample should fail")
	}
	if _, err := KolmogorovSmirnov(same, nil); err != ErrEmpty {
		t.Error("empty second sample should fail")
	}
}

func TestKolmogorovSmirnovProperties(t *testing.T) {
	f := func(rawA, rawB []float64) bool {
		a, b := filterFinite(rawA), filterFinite(rawB)
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		d1, err1 := KolmogorovSmirnov(a, b)
		d2, err2 := KolmogorovSmirnov(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		// Symmetric and bounded.
		return math.Abs(d1-d2) < 1e-12 && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
