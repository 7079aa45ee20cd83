package sketch

import (
	"math"
	"sort"
	"testing"
)

// FuzzSketchMerge decodes two arbitrary byte strings as sketches and,
// when both parse, merges them and checks the structural invariants a
// downstream segment query relies on: count additivity, min/max
// envelope, monotone quantiles, and a re-serializable result.
func FuzzSketchMerge(f *testing.F) {
	seed := func(build func(s *Sketch)) []byte {
		s := New(DefaultCompression)
		build(s)
		return s.AppendBinary(nil)
	}
	empty := seed(func(*Sketch) {})
	small := seed(func(s *Sketch) {
		for i := 0; i < 40; i++ {
			s.Add(float64(i) + 0.5)
		}
	})
	big := seed(func(s *Sketch) {
		for i := 0; i < 5000; i++ {
			s.Add(math.Mod(float64(i)*7.31, 250) + 1)
		}
	})
	neg := seed(func(s *Sketch) {
		for i := -50; i < 50; i++ {
			s.Add(float64(i))
		}
	})
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
