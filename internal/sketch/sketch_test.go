package sketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/stats"
)

// exactQuantile is the same piecewise-linear-through-midpoints estimate
// the sketch converges to, computed on the raw sorted data: anchor
// points (0, min), (i+0.5, xs[i]), (n, max).
func exactQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	target := q * float64(n)
	prevPos, prevVal := 0.0, sorted[0]
	for i, v := range sorted {
		center := float64(i) + 0.5
		if target < center {
			return lerp(prevPos, prevVal, center, v, target)
		}
		prevPos, prevVal = center, v
	}
	return lerp(prevPos, prevVal, float64(n), sorted[n-1], target)
}

func TestSmallSketchIsExact(t *testing.T) {
	// Below the compression threshold every observation stays a
	// singleton centroid, so quantiles are interpolation-exact.
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 0, 60)
	for i := 0; i < 60; i++ {
		xs = append(xs, 5+200*rng.Float64())
	}
	s := New(DefaultCompression)
	for _, x := range xs {
		s.Add(x)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got, want := s.Quantile(q), exactQuantile(xs, q)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("q=%g: got %v want %v", q, got, want)
		}
	}
	if s.Count() != uint64(len(xs)) {
		t.Fatalf("count %d, want %d", s.Count(), len(xs))
	}
	if s.Min() != xs[0] || s.Max() != xs[len(xs)-1] {
		t.Fatalf("min/max %v/%v, want %v/%v", s.Min(), s.Max(), xs[0], xs[len(xs)-1])
	}
	// On singletons the order statistics are the observations, and so
	// is the median interval a sorted vector would report.
	for r := 1; r <= len(xs); r++ {
		if got := s.OrderStat(r); got != xs[r-1] {
			t.Fatalf("OrderStat(%d) = %v, want %v", r, got, xs[r-1])
		}
	}
	lo, hi := stats.MedianCI(s)
	if wlo, whi := stats.MedianCI(stats.Sorted(xs)); lo != wlo || hi != whi {
		t.Errorf("MedianCI = [%v, %v], want the sorted vector's [%v, %v]", lo, hi, wlo, whi)
	}
}

func TestLargeSketchAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	xs := make([]float64, 0, n)
	s := New(DefaultCompression)
	for i := 0; i < n; i++ {
		// Log-normal-ish RTT distribution with a long tail.
		x := 8 * math.Exp(rng.NormFloat64()*0.8)
		xs = append(xs, x)
		s.Add(x)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999} {
		got := s.Quantile(q)
		// Convert value error to rank error: where does the sketch's
		// answer actually sit in the sorted data?
		rank := float64(sort.SearchFloat64s(xs, got)) / n
		if math.Abs(rank-q) > 0.01 {
			t.Errorf("q=%g: estimate %v sits at rank %v (rank error %v)", q, got, rank, math.Abs(rank-q))
		}
	}
	if centroids(s) > 2*DefaultCompression {
		t.Errorf("centroids %d exceed 2·compression", centroids(s))
	}
	// CDF must invert Quantile to within the same rank tolerance.
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		v := s.Quantile(q)
		if back := s.CDF(v); math.Abs(back-q) > 0.01 {
			t.Errorf("CDF(Quantile(%g)) = %g", q, back)
		}
	}
}

func TestDeterministicBuildAndMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = 1 + 500*rng.Float64()
	}
	build := func() *Sketch {
		s := New(DefaultCompression)
		for _, v := range vals {
			s.Add(v)
		}
		return s
	}
	a, b := build(), build()
	ab, bb := a.AppendBinary(nil), b.AppendBinary(nil)
	if !reflect.DeepEqual(ab, bb) {
		t.Fatal("same input sequence produced different serializations")
	}

	// Merge determinism: the same ordered merge sequence reproduces
	// identical bytes.
	parts := make([]*Sketch, 4)
	for i := range parts {
		parts[i] = New(DefaultCompression)
		for j := i; j < len(vals); j += len(parts) {
			parts[i].Add(vals[j])
		}
	}
	mergeAll := func() []byte {
		m := New(DefaultCompression)
		for _, p := range parts {
			m.Merge(p)
		}
		return m.AppendBinary(nil)
	}
	m1, m2 := mergeAll(), mergeAll()
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("canonical merge order produced different serializations")
	}

	// Merge must preserve the total count and the global extremes.
	m, rest, err := Decode(m1)
	if err != nil {
		t.Fatalf("decode merged: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("decode left %d trailing bytes", len(rest))
	}
	if m.Count() != uint64(len(vals)) {
		t.Fatalf("merged count %d, want %d", m.Count(), len(vals))
	}
	sort.Float64s(vals)
	if m.Min() != vals[0] || m.Max() != vals[len(vals)-1] {
		t.Fatalf("merged min/max %v/%v, want %v/%v", m.Min(), m.Max(), vals[0], vals[len(vals)-1])
	}
}

func TestMergeMatchesSingleSketchAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 50000
	xs := make([]float64, 0, n)
	parts := make([]*Sketch, 16)
	for i := range parts {
		parts[i] = New(DefaultCompression)
	}
	for i := 0; i < n; i++ {
		x := 5 + 300*rng.Float64()
		xs = append(xs, x)
		parts[i%len(parts)].Add(x)
	}
	m := New(DefaultCompression)
	for _, p := range parts {
		m.Merge(p)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.05, 0.5, 0.95, 0.99} {
		got := m.Quantile(q)
		rank := float64(sort.SearchFloat64s(xs, got)) / n
		if math.Abs(rank-q) > 0.02 {
			t.Errorf("q=%g: merged estimate %v at rank %v", q, got, rank)
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	cases := map[string]func() *Sketch{
		"empty": func() *Sketch { return New(DefaultCompression) },
		"single": func() *Sketch {
			s := New(DefaultCompression)
			s.Add(42.5)
			return s
		},
		"negative-values": func() *Sketch {
			s := New(50)
			for i := -100; i < 100; i++ {
				s.Add(float64(i) / 3)
			}
			return s
		},
		"large": func() *Sketch {
			rng := rand.New(rand.NewSource(11))
			s := New(DefaultCompression)
			for i := 0; i < 30000; i++ {
				s.Add(1 + 100*rng.Float64())
			}
			return s
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			s := mk()
			buf := s.AppendBinary(nil)
			got, rest, err := Decode(buf)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(rest) != 0 {
				t.Fatalf("trailing bytes: %d", len(rest))
			}
			if !reflect.DeepEqual(got.AppendBinary(nil), buf) {
				t.Fatal("re-serialization differs")
			}
			for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
				if a, b := s.Quantile(q), got.Quantile(q); a != b {
					t.Fatalf("q=%g: %v != %v after round trip", q, a, b)
				}
			}
		})
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	s := New(DefaultCompression)
	for i := 0; i < 1000; i++ {
		s.Add(float64(i%97) + 1)
	}
	good := s.AppendBinary(nil)
	if _, _, err := Decode(good); err != nil {
		t.Fatalf("valid payload rejected: %v", err)
	}
	// Truncations at every prefix must error, never panic.
	for i := 0; i < len(good); i++ {
		if _, _, err := Decode(good[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	// A wrong version byte must be rejected.
	bad := append([]byte(nil), good...)
	bad[0] = 99
	if _, _, err := Decode(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	// A centroid count the payload cannot hold must be refused before
	// anything is sized by it: a 20-byte block claiming 2^20 centroids
	// used to cost 8 MiB of means.
	huge := []byte{sketchVersion, 0}
	huge = binary.AppendUvarint(huge, DefaultCompression)
	huge = binary.AppendUvarint(huge, 1<<20) // count
	huge = binary.AppendUvarint(huge, 1<<20) // centroids
	huge = append(huge, make([]byte, 20)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Decode(huge)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized centroid count: %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Errorf("refusing a %d-byte payload allocated %d bytes", len(huge), grew)
	}
}

// checkBatch requires Quantiles, and one walk answering CDF keys in
// turn, to answer exactly — to the bit — what one Quantile or CDF call
// per key answers.
func checkBatch(t *testing.T, s *Sketch, qs, xs []float64) {
	t.Helper()
	for i, got := range s.Quantiles(nil, qs) {
		if want := s.Quantile(qs[i]); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Quantiles[%d] (q=%v) = %v, Quantile = %v", i, qs[i], got, want)
		}
	}
	w := s.walk()
	for i, x := range xs {
		if got, want := w.cdf(x), s.CDF(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("walk cdf[%d] (x=%v) = %v, CDF = %v", i, x, got, want)
		}
	}
}

// TestBatchEqualsSingle is the batch kernels' contract: on random
// ascending grids — with keys below, at and beyond both ends, repeated
// keys, keys on centroid means — over empty, singleton-centroid and
// compressed sketches, a batch equals repeated single calls with ==. A
// grid that is not ascending, or holds a NaN, must too: the scan
// restarts instead of answering from where it stood.
func TestBatchEqualsSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(20240611))
	for trial := 0; trial < 400; trial++ {
		s := New(DefaultCompression)
		var n int
		switch trial % 4 {
		case 0: // empty
		case 1:
			n = 1 + rng.Intn(150) // every observation its own centroid
		default:
			n = 500 + rng.Intn(20000)
		}
		for i := 0; i < n; i++ {
			s.Add(math.Round(rng.Float64()*1500) / 10) // 0.1 ms steps: plenty of ties
		}
		if trial%8 >= 4 { // a merged digest, as the segment reader holds
			o := New(DefaultCompression)
			for i := rng.Intn(5000); i > 0; i-- {
				o.Add(20 + 60*rng.Float64())
			}
			s = Merged(s, o)
		}
		m := 1 + rng.Intn(300)
		qs, xs := make([]float64, m), make([]float64, m)
		for i := range qs {
			qs[i] = rng.Float64()*1.2 - 0.1
			xs[i] = s.Min() - 5 + rng.Float64()*(s.Max()-s.Min()+10)
		}
		qs = append(qs, 0, 1, 0.5, 0.5)
		xs = append(xs, s.Min(), s.Max(), s.Quantile(0.5), s.Quantile(0.5))
		if s.count > 0 {
			xs = append(xs, s.means[rng.Intn(len(s.means))], s.means[0], s.means[len(s.means)-1])
		}
		if trial%5 != 0 {
			sort.Float64s(qs)
			sort.Float64s(xs)
		} else if trial%10 == 0 {
			qs[len(qs)/2], xs[len(xs)/2] = math.NaN(), math.NaN()
		}
		checkBatch(t, s, qs, xs)
	}
}

// TestMergedLeavesOperandsUntouched pins the two properties the segment
// reader's node cache stands on: Merged(a, b) is a.Merge(b) to the bit,
// and neither operand — centroids, capacity and all — is written.
func TestMergedLeavesOperandsUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	decoded := func(n int) *Sketch {
		s := New(DefaultCompression)
		for i := 0; i < n; i++ {
			s.Add(10 + 90*rng.Float64())
		}
		out, _, err := Decode(s.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	snapshot := func(s *Sketch) Sketch {
		c := *s
		c.means = append([]float64(nil), s.means[:cap(s.means)]...)
		c.weights = append([]uint64(nil), s.weights[:cap(s.weights)]...)
		return c
	}
	for _, sizes := range [][2]int{{0, 0}, {0, 700}, {700, 0}, {40, 60}, {3000, 2500}} {
		a, b := decoded(sizes[0]), decoded(sizes[1])
		a0, b0 := snapshot(a), snapshot(b)
		got := Merged(a, b)
		for _, op := range []struct {
			name   string
			s      *Sketch
			before Sketch
		}{{"a", a, a0}, {"b", b, b0}} {
			if now := snapshot(op.s); !reflect.DeepEqual(now, op.before) {
				t.Fatalf("sizes %v: Merged wrote to %s", sizes, op.name)
			}
		}
		// Nor may a later merge into the result, even where the result
		// still shares a's slices (b was empty).
		got.Merge(decoded(300))
		if now := snapshot(a); !reflect.DeepEqual(now, a0) {
			t.Fatalf("sizes %v: a merge into Merged's result wrote to a", sizes)
		}
		want := Merged(a, b).AppendBinary(nil)
		a.Merge(b)
		if !bytes.Equal(a.AppendBinary(nil), want) {
			t.Fatalf("sizes %v: Merged(a, b) differs from a.Merge(b)", sizes)
		}
	}
}

// TestMergeAllocatesTwoSlices pins the merge's allocation count: the
// merged mean and weight slices, compacted in place — no third and
// fourth for the compaction's output.
func TestMergeAllocatesTwoSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a, b := New(DefaultCompression), New(DefaultCompression)
	for i := 0; i < 5000; i++ {
		a.Add(100 * rng.Float64())
		b.Add(100 * rng.Float64())
	}
	centroids(a)
	centroids(b)
	if n := testing.AllocsPerRun(50, func() { a.Merge(b) }); n != 2 {
		t.Errorf("Merge allocates %v times, want 2", n)
	}
}

// digestOf builds a sketch of compression δ from xs in the order given.
func digestOf(compression int, xs []float64) *Sketch {
	s := New(compression)
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

// checkEmptySide holds a Shifter to the no-evidence contract: a side
// with no observations scores 0.5, whichever side it is.
func checkEmptySide[D stats.Shifter[D]](t *testing.T, name string, empty, full D) {
	t.Helper()
	for _, c := range []struct {
		pair string
		got  float64
	}{
		{"empty before", empty.Shift(full)},
		{"empty after", full.Shift(empty)},
		{"both empty", empty.Shift(empty)},
	} {
		if c.got != 0.5 {
			t.Errorf("%s: %s: Shift = %v, want 0.5", name, c.pair, c.got)
		}
	}
}

func TestShiftEmptySide(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	checkEmptySide(t, "stats.Sorted", stats.Sorted(nil), stats.SortedCopy(xs))
	checkEmptySide(t, "sketch", New(DefaultCompression), digestOf(DefaultCompression, xs))
}

// shiftSample draws n values on a coarse grid — so the two sides tie
// across each other — that straddles zero: negatives, zeros and
// positives, offset by off.
func shiftSample(rng *rand.Rand, n int, off float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Round(rng.NormFloat64()*4)/2 + off
	}
	return xs
}

// TestSketchShiftMatchesSorted: on all-singleton digests the shift walk
// is the exact Mann-Whitney statistic, bit for bit stats.Sorted.Shift;
// on compressed digests it stays within the tolerance the segment
// reader's changepoint is held to.
func TestSketchShiftMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, compression := range []int{10, 200} {
		limit := singletonLimit(compression)
		for trial := 0; trial < 500; trial++ {
			xs := shiftSample(rng, 1+rng.Intn(limit), 0)
			ys := shiftSample(rng, 1+rng.Intn(limit), float64(rng.Intn(5))-2)
			a, b := digestOf(compression, xs), digestOf(compression, ys)
			if centroids(a) != a.N() || centroids(b) != b.N() {
				t.Fatalf("δ=%d: digests of %d and %d values are not all singletons", compression, a.N(), b.N())
			}
			got, want := a.Shift(b), stats.SortedCopy(xs).Shift(stats.SortedCopy(ys))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("δ=%d, n=%d/%d: Shift = %v, stats.Sorted.Shift = %v", compression, len(xs), len(ys), got, want)
			}
		}
		for trial := 0; trial < 6; trial++ {
			xs := shiftSample(rng, 5000+rng.Intn(20000), 0)
			ys := shiftSample(rng, 5000+rng.Intn(20000), float64(trial)/2)
			got := digestOf(compression, xs).Shift(digestOf(compression, ys))
			want := stats.SortedCopy(xs).Shift(stats.SortedCopy(ys))
			if math.Abs(got-want) > 0.05 {
				t.Errorf("δ=%d, n=%d/%d: compressed Shift = %v, exact %v", compression, len(xs), len(ys), got, want)
			}
		}
	}
}

// singletonLimit is the longest all-singleton list compress keeps
// without a pass.
func singletonLimit(compression int) int {
	n := 0
	for singletonsStay(n+1, compression) {
		n++
	}
	return n
}

// TestCompactPassKeepsShortSingletons proves compress's skip: for every
// compression, the pass returns every all-singleton list singletonsStay
// admits bit for bit, and one just past 2δ/π loses a centroid, so the
// bound is tight to within a few observations.
func TestCompactPassKeepsShortSingletons(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	singletons := func(compression, n int) (*Sketch, []float64, []uint64) {
		means := shiftSample(rng, n, 0)
		sort.Float64s(means)
		weights := make([]uint64, n)
		for i := range weights {
			weights[i] = 1
		}
		return &Sketch{compression: compression, count: uint64(n)}, means, weights
	}
	for _, compression := range []int{10, 50, 200, 1000, 10000} {
		limit := singletonLimit(compression)
		lengths := []int{limit}
		for n, step := 1, max(1, limit/400); n < limit; n += step { // every length up to δ = 1000
			lengths = append(lengths, n)
		}
		for _, n := range lengths {
			s, means, weights := singletons(compression, n)
			wantM := append([]float64(nil), means...)
			if got := s.compactPass(means, weights); got != n {
				t.Fatalf("δ=%d: the pass merged %d singletons into %d centroids", compression, n, got)
			}
			for i := range means {
				if math.Float64bits(means[i]) != math.Float64bits(wantM[i]) || weights[i] != 1 {
					t.Fatalf("δ=%d, n=%d: centroid %d became (%v, %d), was (%v, 1)", compression, n, i, means[i], weights[i], wantM[i])
				}
			}
		}
		n := int(math.Ceil(2*float64(compression)/math.Pi)) + 1
		s, means, weights := singletons(compression, n)
		if got := s.compactPass(means, weights); got >= n {
			t.Errorf("δ=%d: %d singletons pass unmerged; the skip's bound %d is not tight", compression, n, limit)
		}
	}
}
