package sketch

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
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
	if s.Centroids() > 2*DefaultCompression {
		t.Errorf("centroids %d exceed 2·compression", s.Centroids())
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
