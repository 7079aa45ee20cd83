package main

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// TestTenBeyond pins the rule behind lat_tail_ms: a percentile is
// reported only with ten samples beyond it.
func TestTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{150, 90, 15}, {150, 95, 7}, // p95 of 150 samples is not an estimate, p90 is
		{200, 95, 10},
		{224, 98, 4},
		{500, 98, 10},
		{1000, 99, 10},
		{28000, 99.9, 28},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	// The serve workloads' frozen tails hold ten beyond in one window.
	for _, spec := range serveSpecs {
		n := sizesFor(spec, sizing{seconds: 20}, false)
		if beyond(n.window, spec.tail) < minBeyond {
			t.Errorf("%s: p%g has %d samples beyond it in a window of %d", spec.name, spec.tail, beyond(n.window, spec.tail), n.window)
		}
		if n.open < n.window {
			t.Errorf("%s: open loop of %d is shorter than one window of %d", spec.name, n.open, n.window)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to
// statistics.quantiles(xs, n=4), the rule the benchmark is accepted by.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestPerWindow(t *testing.T) {
	// A window of 20 slides by 2: the quiet stretch 10..29 between two
	// bursts is one of its positions though no aligned window holds it.
	xs := make([]float64, 50)
	for i := range xs {
		if xs[i] = 9; i >= 10 && i < 30 {
			xs[i] = 1
		}
	}
	got := perWindow(xs, 20, slices.Max)
	if len(got) != 16 || slices.Min(got) != 1 || got[5] != 1 || got[0] != 9 {
		t.Errorf("perWindow maxima = %v, want 16 positions, 1 at the sixth only", got)
	}
	if got := perWindow(xs[:2], 3, median); len(got) != 1 || got[0] != 9 {
		t.Errorf("perWindow of a short sample = %v, want [9]", got)
	}
}

func TestChunkRates(t *testing.T) {
	// 40 responses, one every 10 ms, then a 1 s stall, then 40 more; the
	// failed one is not a response.
	var closed []outcome
	for i := 1; i <= 80; i++ {
		at := time.Duration(i) * 10 * time.Millisecond
		if i > 40 {
			at += time.Second
		}
		closed = append(closed, outcome{done: at})
	}
	closed[0].failed = "wrong body"
	got := chunkRates(closed, 1800*time.Millisecond, 20)
	if want := (79-20)/2 + 1; len(got) != want {
		t.Fatalf("%d chunks, want %d", len(got), want)
	}
	if hi, lo := slices.Max(got), slices.Min(got); math.Abs(hi-100) > 1e-6 || lo > 20 {
		t.Errorf("chunk rates span %.1f..%.1f, want 100/s beside the stall and under 20/s across it", lo, hi)
	}
	if got := chunkRates(closed[:10], time.Second, 20); len(got) != 1 || got[0] != 9 {
		t.Errorf("chunkRates of a short loop = %v, want [9]", got)
	}
}
