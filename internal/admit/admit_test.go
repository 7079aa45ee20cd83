package admit

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock is a hand-cranked monotonic clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (f *fakeClock) Now() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now += d
	f.mu.Unlock()
}

func TestQuotaBurstAndRefill(t *testing.T) {
	clk := &fakeClock{}
	reg := obs.NewRegistry()
	c := New(Options{RatePerSec: 10, Burst: 3, Clock: clk.Now, Obs: reg})

	for i := 0; i < 3; i++ {
		if ok, _ := c.Allow("alice"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := c.Allow("alice")
	if ok {
		t.Fatal("4th request within burst window admitted")
	}
	if want := 100 * time.Millisecond; retry != want {
		t.Errorf("Retry-After = %v, want %v (1 token at 10/s)", retry, want)
	}
	if got := reg.Counter("admit_quota_denied_total").Load(); got != 1 {
		t.Errorf("denied counter = %d, want 1", got)
	}

	// A different client has its own full bucket.
	if ok, _ := c.Allow("bob"); !ok {
		t.Error("independent client denied")
	}

	// Half a token refilled: still denied, retry shrinks.
	clk.Advance(50 * time.Millisecond)
	if ok, retry = c.Allow("alice"); ok || retry != 50*time.Millisecond {
		t.Errorf("after 50ms: ok=%v retry=%v, want denied/50ms", ok, retry)
	}
	clk.Advance(60 * time.Millisecond)
	if ok, _ = c.Allow("alice"); !ok {
		t.Error("token refilled but still denied")
	}

	// Refill never exceeds the burst capacity.
	clk.Advance(time.Hour)
	for i := 0; i < 3; i++ {
		if ok, _ := c.Allow("alice"); !ok {
			t.Fatalf("post-idle burst request %d denied", i)
		}
	}
	if ok, _ := c.Allow("alice"); ok {
		t.Error("idle time grew the bucket past its burst capacity")
	}
}

func TestQuotaClientTableBounded(t *testing.T) {
	clk := &fakeClock{}
	reg := obs.NewRegistry()
	c := New(Options{RatePerSec: 10, Clock: clk.Now, Obs: reg})
	c.maxClients = 4
	for i := 0; i < 10; i++ {
		c.Allow(fmt.Sprintf("client-%d", i))
	}
	if got := reg.Counter("admit_quota_evictions_total").Load(); got != 6 {
		t.Errorf("evictions = %d, want 6", got)
	}
	// The most recently seen clients survive.
	var sb strings.Builder
	reg.WriteMetrics(&sb)
	if !strings.Contains(sb.String(), "admit_quota_clients 4") {
		t.Errorf("metricsz missing live client gauge:\n%s", sb.String())
	}
}

func TestQuotaDisabled(t *testing.T) {
	c := New(Options{RatePerSec: -1})
	for i := 0; i < 1000; i++ {
		if ok, _ := c.Allow("anyone"); !ok {
			t.Fatal("disabled quota denied a request")
		}
	}
}

func TestLimiterShedsPastCeiling(t *testing.T) {
	clk := &fakeClock{}
	reg := obs.NewRegistry()
	c := New(Options{RatePerSec: -1, MaxInFlight: 2, Clock: clk.Now, Obs: reg})

	r1, ok1 := c.Acquire()
	r2, ok2 := c.Acquire()
	if !ok1 || !ok2 {
		t.Fatal("requests under the ceiling were shed")
	}
	if _, ok := c.Acquire(); ok {
		t.Fatal("request over the ceiling admitted")
	}
	if got := reg.Counter("admit_shed_total").Load(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	r1()
	if r3, ok := c.Acquire(); !ok {
		t.Fatal("slot not reusable after release")
	} else {
		r3()
	}
	r2()
	if got := c.inflight.Load(); got != 0 {
		t.Errorf("in-flight after all releases = %d, want 0", got)
	}
}

func TestLimiterDisabled(t *testing.T) {
	c := New(Options{RatePerSec: -1, MaxInFlight: -1})
	for i := 0; i < 100; i++ {
		if _, ok := c.Acquire(); !ok {
			t.Fatal("disabled limiter shed a request")
		}
	}
}

func TestConcurrentAdmission(t *testing.T) {
	clk := &fakeClock{}
	c := New(Options{RatePerSec: 1e9, MaxInFlight: 64, Clock: clk.Now})
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if release, ok := c.Acquire(); ok {
					c.Allow(fmt.Sprintf("client-%d", g))
					release()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.inflight.Load(); got != 0 {
		t.Errorf("in-flight after quiesce = %d, want 0", got)
	}
}

func TestNewPanicsWithoutClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with quota enabled and no Clock did not panic")
		}
	}()
	New(Options{RatePerSec: 10})
}
