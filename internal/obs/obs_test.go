package obs

import (
	"strings"
	"sync"
	"testing"
)

// 32 goroutines hammer one counter; the total must be exact — a torn
// or dropped increment is a correctness bug, not noise. Run under
// -race by make verify.
func TestCounterConcurrentExact(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("hammer_total")
	const goroutines, perG = 32, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	// The registry interned the instrument: a second lookup is the same
	// counter, so late registrants see the same value.
	if again := reg.Counter("hammer_total"); again != c {
		t.Fatalf("re-registration returned a different counter")
	}
}

// Same contract for histograms: exact count, exact per-bucket counts,
// exact sum (the observations are integer-valued so float addition is
// lossless at this magnitude).
func TestHistogramConcurrentExact(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("rtt_ms", []float64{10, 100})
	const goroutines, perG = 32, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(5)   // bucket le=10
				h.Observe(50)  // bucket le=100
				h.Observe(500) // bucket +Inf
			}
		}()
	}
	wg.Wait()
	const n = goroutines * perG
	if got := h.Count(); got != 3*n {
		t.Fatalf("count = %d, want %d", got, 3*n)
	}
	if got, want := h.Sum(), float64(n*(5+50+500)); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	s := h.Snapshot()
	for i, want := range []uint64{n, n, n} {
		if s.Counts[i] != want {
			t.Fatalf("bucket %d = %d, want %d", i, s.Counts[i], want)
		}
	}
}

func TestGaugeSetMaxConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 1; i <= 32; i++ {
		wg.Add(1)
		go func(v int64) {
			defer wg.Done()
			for k := int64(0); k <= v; k++ {
				g.SetMax(k)
			}
		}(int64(i * 10))
	}
	wg.Wait()
	if got := g.Load(); got != 320 {
		t.Fatalf("max gauge = %d, want 320", got)
	}
}

// Instruments from a nil registry must work (and stay unregistered) so
// uninstrumented components carry no branches.
func TestNilRegistryInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	if c.Load() != 1 {
		t.Fatal("nil-registry counter did not count")
	}
	h := r.Histogram("y", RTTBuckets)
	h.Observe(3)
	if h.Count() != 1 {
		t.Fatal("nil-registry histogram did not observe")
	}
	r.Gauge("z").Set(5)
	r.GaugeFunc("f", func() float64 { return 1 })
	var sb strings.Builder
	if err := r.WriteMetrics(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry exposition = %q, %v; want empty, nil", sb.String(), err)
	}
}

func TestExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve_requests_total", "endpoint", "cdf").Add(7)
	reg.Gauge("bus_queue_depth_high_water").Set(12)
	reg.GaugeFunc("store_rows", func() float64 { return 42 })
	h := reg.Histogram("serve_latency_ms", []float64{1, 10}, "endpoint", "cdf")
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var sb strings.Builder
	if err := reg.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		`serve_requests_total{endpoint="cdf"} 7`,
		`bus_queue_depth_high_water 12`,
		`store_rows 42`,
		`serve_latency_ms_bucket{endpoint="cdf",le="1"} 1`,
		`serve_latency_ms_bucket{endpoint="cdf",le="10"} 2`,
		`serve_latency_ms_bucket{endpoint="cdf",le="+Inf"} 3`,
		`serve_latency_ms_sum{endpoint="cdf"} 55.5`,
		`serve_latency_ms_count{endpoint="cdf"} 3`,
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, got)
		}
	}
	// Output is sorted, so identical registries render identically.
	lines := strings.Split(strings.TrimSpace(got), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i] < lines[i-1] {
			t.Fatalf("exposition not sorted: %q before %q", lines[i-1], lines[i])
		}
	}
}

func TestLabelInterning(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "k", "v", "a", "b")
	b := reg.Counter("x_total", "a", "b", "k", "v") // label order must not matter
	if a != b {
		t.Fatal("label order produced distinct instruments")
	}
	c := reg.Counter("x_total", "k", "w")
	if c == a {
		t.Fatal("distinct label values interned together")
	}
}
