package serve_test

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admit"
	"repro/internal/analysis"
	"repro/internal/geo"
	"repro/internal/serve"
	"repro/internal/store"
)

// blockingQuerier parks every CDF query on a gate so tests control
// exactly when an in-flight request completes.
type blockingQuerier struct {
	*store.Store
	gate  chan struct{}
	calls atomic.Int64
}

func (b *blockingQuerier) ContinentCDFsWindow(platform string, w store.Window) []analysis.ContinentDistribution {
	b.calls.Add(1)
	<-b.gate
	return b.Store.ContinentCDFsWindow(platform, w)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// A validator minted before a Swap must never be confirmed afterwards,
// even when the new store serves a byte-identical body: the epoch in
// the ETag is what breaks the match, not the content hash.
func TestSwapBreaksStaleETags(t *testing.T) {
	st, _, _ := fixture(t)
	srv := serve.New(st, serve.Options{})
	h := srv.Handler()

	first := doGet(h, "/v1/latency-map", nil)
	if first.Code != http.StatusOK {
		t.Fatalf("cold GET = %d", first.Code)
	}
	etag1 := first.Header().Get("ETag")
	if !strings.Contains(etag1, "e1-") {
		t.Errorf("epoch-1 ETag = %q, want e1- prefix", etag1)
	}
	if got := first.Header().Get("X-Store-Epoch"); got != "1" {
		t.Errorf("X-Store-Epoch = %q, want 1", got)
	}
	if rec := doGet(h, "/v1/latency-map", map[string]string{"If-None-Match": etag1}); rec.Code != http.StatusNotModified {
		t.Fatalf("same-epoch revalidation = %d, want 304", rec.Code)
	}

	// Swap to the *same* store: identical rows, identical body bytes.
	if epoch := srv.Swap(st); epoch != 2 {
		t.Fatalf("Swap returned epoch %d, want 2", epoch)
	}
	rec := doGet(h, "/v1/latency-map", map[string]string{"If-None-Match": etag1})
	if rec.Code != http.StatusOK {
		t.Fatalf("post-swap revalidation = %d, want 200 (stale 304 leaked)", rec.Code)
	}
	if got := rec.Header().Get("X-Store-Epoch"); got != "2" {
		t.Errorf("post-swap X-Store-Epoch = %q, want 2", got)
	}
	etag2 := rec.Header().Get("ETag")
	if !strings.Contains(etag2, "e2-") || etag2 == etag1 {
		t.Errorf("post-swap ETag = %q, want a fresh e2- tag (was %q)", etag2, etag1)
	}
	// The new-epoch validator revalidates normally.
	if rec := doGet(h, "/v1/latency-map", map[string]string{"If-None-Match": etag2}); rec.Code != http.StatusNotModified {
		t.Errorf("new-epoch revalidation = %d, want 304", rec.Code)
	}
}

// altStore builds a second store whose CDF bodies cannot collide with
// the fixture's — the torn-store detector in the swap race and chaos
// tests.
func altStore(opts store.Options) *store.Store {
	b := store.NewBuilder(opts)
	for k := 0; k < 40; k++ {
		b.Add(store.Sample{
			Platform: "atlas", Country: "DE", Continent: geo.EU,
			Provider: "AMZN", RTTms: 99 + float64(k%3),
		})
	}
	return b.Seal()
}

// 32 concurrent cold GETs racing a live Swap: every response must be a
// 200 belonging wholly to one epoch (header, ETag and body all agree —
// no torn store), requests must coalesce to exactly one store query
// per epoch, and both epochs must be observed.
func TestSwapRaceCoalescesPerEpoch(t *testing.T) {
	stA, _, _ := fixture(t)
	qA := &blockingQuerier{Store: stA, gate: make(chan struct{})}
	qB := &blockingQuerier{Store: altStore(store.Options{Shards: 2}), gate: make(chan struct{})}
	srv := serve.New(qA, serve.Options{})
	h := srv.Handler()

	const n = 32
	type response struct {
		code  int
		epoch string
		etag  string
		body  string
	}
	responses := make([]response, n)
	var wg sync.WaitGroup
	get := func(i int) {
		defer wg.Done()
		rec := doGet(h, "/v1/cdf?platform=atlas", nil)
		responses[i] = response{rec.Code, rec.Header().Get("X-Store-Epoch"), rec.Header().Get("ETag"), rec.Body.String()}
	}
	// First half launches against epoch 1 and parks on qA's gate (one
	// in the flight, the rest coalescing onto it)...
	for i := 0; i < n/2; i++ {
		wg.Add(1)
		go get(i)
	}
	waitFor(t, "epoch-1 flight to start", func() bool { return qA.calls.Load() >= 1 })
	// ...then the store swaps mid-flight and the second half arrives.
	if epoch := srv.Swap(qB); epoch != 2 {
		t.Fatalf("Swap returned epoch %d", epoch)
	}
	for i := n / 2; i < n; i++ {
		wg.Add(1)
		go get(i)
	}
	waitFor(t, "epoch-2 flight to start", func() bool { return qB.calls.Load() >= 1 })
	close(qA.gate)
	close(qB.gate)
	wg.Wait()

	bodies := map[string]map[string]bool{} // epoch → distinct bodies
	for i, r := range responses {
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.code)
		}
		if r.epoch != "1" && r.epoch != "2" {
			t.Fatalf("request %d: X-Store-Epoch %q", i, r.epoch)
		}
		if !strings.Contains(r.etag, "e"+r.epoch+"-") {
			t.Errorf("request %d: epoch %s with ETag %q", i, r.epoch, r.etag)
		}
		if bodies[r.epoch] == nil {
			bodies[r.epoch] = map[string]bool{}
		}
		bodies[r.epoch][r.body] = true
	}
	if len(bodies) != 2 {
		t.Fatalf("observed epochs %v, want both 1 and 2", bodies)
	}
	for epoch, set := range bodies {
		if len(set) != 1 {
			t.Errorf("epoch %s served %d distinct bodies, want 1 (torn store)", epoch, len(set))
		}
	}
	for b1 := range bodies["1"] {
		for b2 := range bodies["2"] {
			if b1 == b2 {
				t.Error("epochs 1 and 2 served identical bodies; torn-store detector is blind")
			}
		}
	}
	if a, b := qA.calls.Load(), qB.calls.Load(); a != 1 || b != 1 {
		t.Errorf("store queries: epoch1=%d epoch2=%d, want exactly 1 each (per-epoch coalescing)", a, b)
	}
}

// Liveness and readiness split: healthz stays 200 through a drain,
// readyz flips to 503 the moment BeginDrain is called.
func TestReadyzDrain(t *testing.T) {
	st, _, _ := fixture(t)
	srv := serve.New(st, serve.Options{})
	h := srv.Handler()

	rec := doGet(h, "/v1/readyz", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"epoch":1`) {
		t.Fatalf("readyz = %d %q, want 200 with epoch", rec.Code, rec.Body.String())
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Errorf("readyz Cache-Control = %q, want no-store", cc)
	}
	srv.Swap(st)
	if rec := doGet(h, "/v1/readyz", nil); !strings.Contains(rec.Body.String(), `"epoch":2`) {
		t.Errorf("readyz after swap = %q, want epoch 2", rec.Body.String())
	}

	srv.BeginDrain()
	if rec := doGet(h, "/v1/readyz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", rec.Code)
	}
	if rec := doGet(h, "/v1/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("draining healthz = %d, want 200 (liveness is not routability)", rec.Code)
	}
	if srv.Ready() {
		t.Error("Ready() = true after BeginDrain")
	}
	var stats serve.Statsz
	getJSON(t, h, "/v1/statsz", &stats)
	if stats.Ready || stats.StoreEpoch != 2 {
		t.Errorf("statsz ready=%v epoch=%d, want false/2", stats.Ready, stats.StoreEpoch)
	}
}

// The Server's own ServeListener drains gracefully and flips readiness
// before returning.
func TestServerServeListenerDrain(t *testing.T) {
	st, _, _ := fixture(t)
	srv := serve.New(st, serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ServeListener(ctx, ln) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz over TCP = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeListener returned %v after drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not drain within 5s")
	}
	if srv.Ready() {
		t.Error("server still ready after drained shutdown")
	}
}

// Per-client quotas: a client that outruns its bucket gets 429 with a
// Retry-After, other clients and the control endpoints are unaffected,
// and the denial is visible on /v1/metricsz.
func TestQuotaDenies429(t *testing.T) {
	st, _, _ := fixture(t)
	srv := serve.New(st, serve.Options{
		Admit: admit.Options{RatePerSec: 0.001, Burst: 2},
	})
	h := srv.Handler()

	for i := 0; i < 2; i++ {
		if rec := doGet(h, "/v1/latency-map", nil); rec.Code != http.StatusOK {
			t.Fatalf("in-quota request %d = %d", i, rec.Code)
		}
	}
	rec := doGet(h, "/v1/latency-map", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota request = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 Retry-After = %q, want a positive whole-second value", ra)
	}
	if !strings.Contains(rec.Body.String(), "quota") {
		t.Errorf("429 body = %q", rec.Body.String())
	}

	// A different client identity has its own bucket.
	if rec := doGet(h, "/v1/latency-map", map[string]string{"X-Client-ID": "other"}); rec.Code != http.StatusOK {
		t.Errorf("independent client = %d, want 200", rec.Code)
	}
	// Control endpoints bypass admission even for the throttled client.
	for _, path := range []string{"/v1/healthz", "/v1/readyz", "/v1/metricsz"} {
		if rec := doGet(h, path, nil); rec.Code != http.StatusOK {
			t.Errorf("GET %s while throttled = %d, want 200 (bypass)", path, rec.Code)
		}
	}
	body := doGet(h, "/v1/metricsz", nil).Body.String()
	if !strings.Contains(body, "admit_quota_denied_total 1") {
		t.Errorf("metricsz missing denial counter:\n%s", body)
	}
}

// The concurrency ceiling sheds with 503 while a slot is held and
// recovers when it frees up.
func TestLimiterSheds503(t *testing.T) {
	st, _, _ := fixture(t)
	q := &blockingQuerier{Store: st, gate: make(chan struct{})}
	srv := serve.New(q, serve.Options{
		Admit: admit.Options{RatePerSec: -1, MaxInFlight: 1},
	})
	h := srv.Handler()

	var wg sync.WaitGroup
	wg.Add(1)
	var heldCode int
	go func() {
		defer wg.Done()
		heldCode = doGet(h, "/v1/cdf?platform=atlas", nil).Code
	}()
	waitFor(t, "holder to occupy the slot", func() bool { return q.calls.Load() >= 1 })

	rec := doGet(h, "/v1/latency-map", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request past ceiling = %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("503 Retry-After = %q, want 1", ra)
	}
	if body := doGet(h, "/v1/metricsz", nil).Body.String(); !strings.Contains(body, "admit_shed_total 1") {
		t.Errorf("metricsz missing shed counter:\n%s", body)
	}

	close(q.gate)
	wg.Wait()
	if heldCode != http.StatusOK {
		t.Fatalf("held request finished with %d", heldCode)
	}
	if rec := doGet(h, "/v1/latency-map", nil); rec.Code != http.StatusOK {
		t.Errorf("post-release request = %d, want 200 (slot recovered)", rec.Code)
	}
}
