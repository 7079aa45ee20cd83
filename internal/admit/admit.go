// Package admit is the admission-control layer in front of the query
// service: per-client token-bucket quotas (the Globalping lesson — a
// public measurement API without per-client limits is one curl loop
// away from an outage) and a global concurrency limiter that sheds
// load outright once too many requests are in flight, so the server
// answers a cheap 503 instead of queueing work it will time out on.
//
// The package never reads the wall clock. Time enters exclusively
// through the injected Clock — the HTTP layer passes a monotonic
// stopwatch, deterministic tests pass a hand-cranked fake — which
// keeps admit inside the repo's norawtime contract (internal/lint)
// and makes every refill decision replayable.
package admit

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/obs"
)

// Clock returns elapsed time from an arbitrary fixed origin. It must
// be monotonic; absolute wall time is never needed.
type Clock func() time.Duration

// DefaultMaxInFlight is the concurrency ceiling when Options leaves
// MaxInFlight zero.
const DefaultMaxInFlight = 1024

// Options tunes a Controller.
type Options struct {
	// RatePerSec is the per-client token refill rate (default 100).
	// Negative disables the quota layer entirely.
	RatePerSec float64
	// Burst is the per-client bucket capacity (default 2×RatePerSec).
	Burst float64
	// MaxClients bounds the bucket table; the least-recently-seen
	// client is evicted past it (default 8192). A fresh bucket starts
	// full, so eviction can only ever be generous, never starving.
	MaxClients int
	// MaxInFlight is the global concurrency ceiling (default
	// DefaultMaxInFlight). Negative disables shedding.
	MaxInFlight int
	// Clock supplies monotonic time for bucket refill. Required when
	// the quota layer is enabled.
	Clock Clock
	// Obs registers the admission instruments: admitted/denied/shed
	// counters, live in-flight and client-table gauges. Nil runs
	// uninstrumented.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.RatePerSec == 0 {
		o.RatePerSec = 100
	}
	if o.Burst <= 0 {
		o.Burst = 2 * o.RatePerSec
	}
	if o.MaxClients <= 0 {
		o.MaxClients = 8192
	}
	if o.MaxInFlight == 0 {
		o.MaxInFlight = DefaultMaxInFlight
	}
	return o
}

// Controller is the combined quota + limiter gate. All methods are
// safe for concurrent use.
type Controller struct {
	opts Options

	// Quota state: one token bucket per client key, LRU-bounded.
	mu      sync.Mutex
	buckets map[string]*list.Element
	lru     *list.List // front = most recently seen

	// Limiter state.
	inflight  *obs.Gauge
	maxHigh   *obs.Gauge
	mAdmitted *obs.Counter
	mDenied   *obs.Counter
	mShed     *obs.Counter
	mEvicted  *obs.Counter
}

type bucket struct {
	client string
	tokens float64
	last   time.Duration
}

// New builds a Controller. opts.Clock is required unless the quota
// layer is disabled (RatePerSec < 0).
func New(opts Options) *Controller {
	opts = opts.withDefaults()
	if opts.RatePerSec > 0 && opts.Clock == nil {
		panic("admit: quota enabled without a Clock")
	}
	c := &Controller{
		opts:      opts,
		buckets:   map[string]*list.Element{},
		lru:       list.New(),
		inflight:  opts.Obs.Gauge("admit_in_flight"),
		maxHigh:   opts.Obs.Gauge("admit_in_flight_high_water"),
		mAdmitted: opts.Obs.Counter("admit_admitted_total"),
		mDenied:   opts.Obs.Counter("admit_quota_denied_total"),
		mShed:     opts.Obs.Counter("admit_shed_total"),
		mEvicted:  opts.Obs.Counter("admit_quota_evictions_total"),
	}
	opts.Obs.GaugeFunc("admit_quota_clients", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.buckets))
	})
	return c
}

// Acquire claims one slot of the global concurrency budget. ok=false
// means the request must be shed (503); on ok=true the caller must
// invoke release exactly once when the request finishes.
func (c *Controller) Acquire() (release func(), ok bool) {
	if c.opts.MaxInFlight < 0 {
		c.mAdmitted.Inc()
		return func() {}, true
	}
	if cur := c.inflight.Load() + 1; cur > int64(c.opts.MaxInFlight) {
		c.mShed.Inc()
		return nil, false
	}
	// Admission is advisory, not a strict semaphore: between the load
	// and the add a burst can overshoot by the number of racing
	// requests, which shedding tolerates (the ceiling protects the
	// process, it is not an exact accounting invariant).
	c.inflight.Add(1)
	c.maxHigh.SetMax(c.inflight.Load())
	c.mAdmitted.Inc()
	return func() { c.inflight.Add(-1) }, true
}

// InFlight returns the current concurrency reading.
func (c *Controller) InFlight() int64 { return c.inflight.Load() }

// Allow spends one token from client's bucket. When the bucket is
// empty it returns ok=false and the duration until one token will
// have refilled — the Retry-After the HTTP layer should advertise.
func (c *Controller) Allow(client string) (ok bool, retryAfter time.Duration) {
	if c.opts.RatePerSec < 0 {
		return true, 0
	}
	now := c.opts.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	var b *bucket
	if el, found := c.buckets[client]; found {
		c.lru.MoveToFront(el)
		b = el.Value.(*bucket)
		b.tokens += c.opts.RatePerSec * (now - b.last).Seconds()
		if b.tokens > c.opts.Burst {
			b.tokens = c.opts.Burst
		}
		b.last = now
	} else {
		b = &bucket{client: client, tokens: c.opts.Burst, last: now}
		c.buckets[client] = c.lru.PushFront(b)
		for len(c.buckets) > c.opts.MaxClients {
			oldest := c.lru.Back()
			c.lru.Remove(oldest)
			delete(c.buckets, oldest.Value.(*bucket).client)
			c.mEvicted.Inc()
		}
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	c.mDenied.Inc()
	deficit := 1 - b.tokens
	return false, time.Duration(deficit / c.opts.RatePerSec * float64(time.Second))
}

// QuotaEnabled reports whether the per-client quota layer is active.
func (c *Controller) QuotaEnabled() bool { return c.opts.RatePerSec > 0 }

// Clients returns the current bucket-table size.
func (c *Controller) Clients() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buckets)
}
