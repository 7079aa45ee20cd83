package sketch

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"repro/internal/stats"
)

// seedDigests serializes four digests for the fuzz corpora: empty,
// small (all singletons), big (compressed) and one with negative means
// (the raw-means encoding).
func seedDigests() (empty, small, big, neg []byte) {
	seed := func(build func(s *Sketch)) []byte {
		s := New(DefaultCompression)
		build(s)
		return s.AppendBinary(nil)
	}
	empty = seed(func(*Sketch) {})
	small = seed(func(s *Sketch) {
		for i := 0; i < 40; i++ {
			s.Add(float64(i) + 0.5)
		}
	})
	big = seed(func(s *Sketch) {
		for i := 0; i < 5000; i++ {
			s.Add(math.Mod(float64(i)*7.31, 250) + 1)
		}
	})
	neg = seed(func(s *Sketch) {
		for i := -50; i < 50; i++ {
			s.Add(float64(i))
		}
	})
	return empty, small, big, neg
}

// FuzzSketchDecodeInto decodes arbitrary bytes into a digest that
// already holds another one — decoded from the first argument, or
// built with observations still buffered when that does not decode —
// with garbage in the spare capacity of its centroid and buffer slices.
// Whatever it held, the result must be a fresh Decode's: the same
// error-or-not, and on success the same remainder, encoding, count,
// range and quantiles.
func FuzzSketchDecodeInto(f *testing.F) {
	empty, small, big, neg := seedDigests()
	f.Add(big, small)
	f.Add(small, big)
	f.Add(neg, empty)
	f.Add(empty, neg)
	f.Add([]byte{}, append(small, 7))
	f.Add(big, small[:len(small)-1])

	f.Fuzz(func(t *testing.T, prev, b []byte) {
		want, wantRest, wantErr := Decode(b)
		dst, _, err := Decode(prev)
		if err != nil {
			dst = New(DefaultCompression)
			for _, x := range []float64{5, 1, 3} {
				dst.Add(x)
			}
		}
		dst.means = append(dst.means, math.NaN(), -1, math.Inf(1))[:len(dst.means)]
		dst.weights = append(dst.weights, 0, math.MaxUint64)[:len(dst.weights)]
		dst.buf = append(dst.buf, 2, math.NaN())
		dst.buf = append(dst.buf, math.Inf(-1), 4)[:len(dst.buf)]
		rest, err := DecodeInto(dst, b)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeInto error %v, fresh Decode error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(rest, wantRest) {
			t.Fatalf("remainder %d bytes, fresh Decode left %d", len(rest), len(wantRest))
		}
		if got, exp := dst.AppendBinary(nil), want.AppendBinary(nil); !bytes.Equal(got, exp) {
			t.Fatalf("encodes as %x, fresh digest as %x", got, exp)
		}
		if dst.Count() != want.Count() || math.Float64bits(dst.Min()) != math.Float64bits(want.Min()) ||
			math.Float64bits(dst.Max()) != math.Float64bits(want.Max()) {
			t.Fatalf("count/min/max %d/%v/%v, fresh %d/%v/%v",
				dst.Count(), dst.Min(), dst.Max(), want.Count(), want.Min(), want.Max())
		}
		if dst.Count() == 0 {
			return
		}
		qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}
		got, exp := dst.Quantiles(nil, qs), want.Quantiles(nil, qs)
		for i := range qs {
			if math.Float64bits(got[i]) != math.Float64bits(exp[i]) {
				t.Fatalf("Quantile(%g) = %v, fresh %v", qs[i], got[i], exp[i])
			}
		}
	})
}

// FuzzSketchMerge decodes two arbitrary byte strings as sketches and,
// when both parse, merges them and checks the structural invariants a
// downstream segment query relies on: count additivity, min/max
// envelope, monotone quantiles, and a re-serializable result.
func FuzzSketchMerge(f *testing.F) {
	empty, small, big, neg := seedDigests()
	f.Add(empty, small)
	f.Add(small, big)
	f.Add(big, neg)
	f.Add([]byte{}, []byte{sketchVersion})
	f.Add([]byte{sketchVersion, 0xff}, small)

	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		a, _, errA := Decode(ab)
		b, _, errB := Decode(bb)
		if errA != nil || errB != nil {
			return // rejected input is a pass — it just must not panic
		}
		wantCount := a.Count() + b.Count()
		a.Merge(b)
		if a.Count() != wantCount {
			t.Fatalf("merged count %d, want %d", a.Count(), wantCount)
		}
		if a.Count() > 0 {
			if a.Min() > a.Max() {
				t.Fatalf("min %v > max %v", a.Min(), a.Max())
			}
			prev := math.Inf(-1)
			for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
				v := a.Quantile(q)
				if math.IsNaN(v) {
					t.Fatalf("Quantile(%g) is NaN", q)
				}
				if v < prev {
					t.Fatalf("Quantile(%g)=%v below previous %v", q, v, prev)
				}
				if v < a.Min() || v > a.Max() {
					t.Fatalf("Quantile(%g)=%v escapes [%v, %v]", q, v, a.Min(), a.Max())
				}
				prev = v
			}
		}
		// Batch kernels answer what the scalar ones do, on a grid that
		// crosses both ends and lands on every centroid mean.
		span := a.Max() - a.Min()
		qs, xs := make([]float64, 0, 64), make([]float64, 0, 64+len(a.means))
		for i := -2; i <= 34; i++ {
			qs = append(qs, float64(i)/32)
			xs = append(xs, a.Min()+span*float64(i)/32)
		}
		xs = append(xs, a.means...)
		checkBatch(t, a, qs, xs) // as built: ascending, then the means restart the scan
		sort.Float64s(xs)
		checkBatch(t, a, qs, xs)
		out := a.AppendBinary(nil)
		if _, rest, err := Decode(out); err != nil || len(rest) != 0 {
			t.Fatalf("merged sketch does not round-trip: %v (rest %d)", err, len(rest))
		}
	})
}

// FuzzSketchShift builds two digests from arbitrary float lists — eight
// bytes a value, non-finite ones and magnitudes past 1e300 (where a
// centroid's mean update could overflow) dropped — at an arbitrary
// compression, and holds Shift to the Mann-Whitney statistic's
// invariants: it lies in [0, 1], Shift(a, b) + Shift(b, a) is 1, and on
// all-singleton digests it is stats.Sorted.Shift to the bit.
func FuzzSketchShift(f *testing.F) {
	floats := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	spread := func(n int, off float64) []byte {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Mod(float64(i)*7.31, 50) - 10 + off
		}
		return floats(xs...)
	}
	f.Add(uint16(DefaultCompression), []byte{}, floats(1, 2, 3))
	f.Add(uint16(DefaultCompression), floats(1, 2, 2, 3), floats(2, 2, 0, -1, math.Copysign(0, -1)))
	f.Add(uint16(10), spread(30, 0), spread(40, 3))
	f.Add(uint16(DefaultCompression), spread(600, 0), spread(400, 5))

	f.Fuzz(func(t *testing.T, compression uint16, ab, bb []byte) {
		values := func(b []byte) []float64 {
			var xs []float64
			for ; len(b) >= 8; b = b[8:] {
				x := math.Float64frombits(binary.LittleEndian.Uint64(b))
				if math.Abs(x) <= 1e300 { // false for NaN
					xs = append(xs, x)
				}
			}
			return xs
		}
		xs, ys := values(ab), values(bb)
		a, b := New(int(compression)), New(int(compression))
		for _, x := range xs {
			a.Add(x)
		}
		for _, y := range ys {
			b.Add(y)
		}
		sab, sba := a.Shift(b), b.Shift(a)
		if !(sab >= 0 && sab <= 1) || !(sba >= 0 && sba <= 1) {
			t.Fatalf("Shift outside [0, 1]: %v, %v", sab, sba)
		}
		if d := math.Abs(sab + sba - 1); !(d <= 1e-12) {
			t.Fatalf("Shift(a, b) + Shift(b, a) = %v + %v, off 1 by %v", sab, sba, d)
		}
		if a.Centroids() == a.N() && b.Centroids() == b.N() {
			want := stats.SortedCopy(xs).Shift(stats.SortedCopy(ys))
			if math.Float64bits(sab) != math.Float64bits(want) {
				t.Fatalf("singleton digests: Shift = %v, stats.Sorted.Shift = %v", sab, want)
			}
		}
	})
}
