package obs

import (
	"math"
	"sync/atomic"
)

// RTTBuckets are the histogram bounds (milliseconds) tuned to the
// paper's RTT range: dense below the 100 ms QoE thresholds of §4.1
// (MTP 20 ms, HPL 75 ms, HRT 100 ms), sparse in the intercontinental
// tail.
var RTTBuckets = []float64{1, 2.5, 5, 10, 20, 35, 50, 75, 100, 150, 250, 500, 1000, 2500}

// LatencyBuckets are the bounds (milliseconds) for in-process
// latencies — HTTP handlers, shard fan-out/merge, store seal — which
// sit orders of magnitude below network RTTs.
var LatencyBuckets = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000}

// Counter is a lock-free monotonic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a lock-free instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark update, lock-free via CAS.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram with lock-free observation:
// one atomic add for the bucket, one for the count, and a CAS loop for
// the float sum. Bounds are upper bucket edges; an implicit +Inf bucket
// catches the tail.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// HistSnapshot is a consistent-enough copy of a histogram for
// exposition (buckets are loaded individually; under concurrent
// observation the snapshot may be mid-update by a single observation,
// which text exposition tolerates).
type HistSnapshot struct {
	Bounds []float64 // upper edges; the +Inf bucket is Counts[len(Bounds)]
	Counts []uint64
	Count  uint64
	Sum    float64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
		Count:  h.Count(),
		Sum:    h.Sum(),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	return s
}
