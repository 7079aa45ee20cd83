package serve_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/serve"
	"repro/internal/store"
)

// jsonError fails unless body is the JSON object {"error": msg}.
func jsonError(t *testing.T, body []byte, msg string) {
	t.Helper()
	var got map[string]string
	if err := json.Unmarshal(body, &got); err != nil || len(got) != 1 || got["error"] != msg {
		t.Errorf(`error body = %q, want {"error":%q}`, body, msg)
	}
}

// A query that outlives Options.Timeout costs its requests a 503 with
// the JSON error body, the duplicates that arrive meanwhile share the
// one computation, control endpoints stay live, and the computation
// still fills the cache once it finishes.
func TestRequestTimeout(t *testing.T) {
	st, _, _ := fixture(t)
	q := &blockingQuerier{Store: st, gate: make(chan struct{})}
	const timeout = 50 * time.Millisecond
	srv := serve.New(q, serve.Options{Timeout: timeout})
	h := srv.Handler()
	const path = "/v1/cdf?platform=atlas"

	var release sync.Once
	unblock := func() { release.Do(func() { close(q.gate) }) }
	defer unblock()

	// get sends one request; it returns nil, failing the test, unless
	// the answer comes within timeout + 1 s.
	get := func() *httptest.ResponseRecorder {
		start := time.Now()
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() { done <- doGet(h, path, nil) }()
		select {
		case rec := <-done:
			if elapsed := time.Since(start); elapsed < timeout {
				t.Errorf("answered after %v, before the %v deadline", elapsed, timeout)
			}
			return rec
		case <-time.After(timeout + time.Second):
			t.Errorf("blocked query not answered within %v", timeout+time.Second)
			return nil
		}
	}
	check := func(rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec == nil {
			t.FailNow()
		}
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("blocked query = %d, want 503 (body %q)", rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("503 Content-Type = %q, want application/json", ct)
		}
		if etag := rec.Header().Get("ETag"); etag != "" {
			t.Errorf("503 carried ETag %q", etag)
		}
		jsonError(t, rec.Body.Bytes(), "request timed out")
	}

	check(get())

	const dups = 8
	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, dups)
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i] = get()
		}(i)
	}
	if rec := doGet(h, "/v1/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("healthz while a query is blocked = %d, want 200", rec.Code)
	}
	wg.Wait()
	for _, rec := range recs {
		check(rec)
	}
	if got := q.calls.Load(); got != 1 {
		t.Errorf("%d timed-out requests ran %d queries, want 1 shared", 1+dups, got)
	}

	// The abandoned computation finishes on its own and caches its body.
	unblock()
	var stats serve.Statsz
	waitFor(t, "the released query to fill the cache", func() bool {
		getJSON(t, h, "/v1/statsz", &stats)
		return stats.Cache.Entries == 1
	})
	rec := doGet(h, path, nil)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
		t.Errorf("retry after release = %d X-Cache %q, want 200 hit", rec.Code, rec.Header().Get("X-Cache"))
	}
	if got := q.calls.Load(); got != 1 {
		t.Errorf("retry ran a query (%d total), want the cached result", got)
	}
	getJSON(t, h, "/v1/statsz", &stats)
	if cdf := stats.Endpoints["cdf"]; cdf.Errors != 1+dups || cdf.Coalesced != dups {
		t.Errorf("cdf errors = %d coalesced = %d, want %d and %d", cdf.Errors, cdf.Coalesced, 1+dups, dups)
	}
}

// panickyQuerier panics in PlatformDiff while fail is set; the first
// call parks on gate first, so concurrent duplicates join its flight.
type panickyQuerier struct {
	*store.Store
	gate  chan struct{}
	fail  atomic.Bool
	calls atomic.Int64
}

func (p *panickyQuerier) PlatformDiff() []analysis.PlatformDiff {
	if p.calls.Add(1) == 1 {
		<-p.gate
	}
	if p.fail.Load() {
		panic("platform diff exploded")
	}
	return p.Store.PlatformDiff()
}

// A panicking query answers every request waiting on it with a 500,
// leaves the process serving, and does not poison its key: the next
// request recomputes and succeeds.
func TestPanickingQueryRecovers(t *testing.T) {
	st, _, _ := fixture(t)
	q := &panickyQuerier{Store: st, gate: make(chan struct{})}
	q.fail.Store(true)
	srv := serve.New(q, serve.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func(path string) (int, []byte, http.Header) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return resp.StatusCode, body, resp.Header
	}

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i], _ = get("/v1/platform-diff")
		}(i)
	}
	waitFor(t, "the first query to start", func() bool { return q.calls.Load() >= 1 })
	close(q.gate)
	wg.Wait()
	for i := range codes {
		if codes[i] != http.StatusInternalServerError {
			t.Errorf("request %d = %d, want 500", i, codes[i])
		}
		jsonError(t, bodies[i], "internal query failure")
	}

	if code, _, _ := get("/v1/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after the panic = %d", code)
	}
	q.fail.Store(false)
	before := q.calls.Load()
	code, _, hdr := get("/v1/platform-diff")
	if code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
		t.Errorf("request after the panic = %d X-Cache %q, want a recomputed 200 miss", code, hdr.Get("X-Cache"))
	}
	if q.calls.Load() != before+1 {
		t.Errorf("request after the panic ran %d queries, want 1", q.calls.Load()-before)
	}
}

// The bytes and ETags of these responses are pinned: ETags are what
// clients revalidate with, and the benchmark oracle compares bodies
// byte for byte, so moving either is a wire change, not a refactor.
var wireGolden = []struct {
	path, accept string
	etag         string
	len          int
	sha256       string
}{
	{"/v1/latency-map", "", `"e1-e364de1400831915"`, 481,
		"24d53ca687ef825ea49dd3c6335bda2b4e15744f095834e89340a00458c47a23"},
	{"/v1/cdf?points=512", "", `"e1-fcc55794cdbb469b"`, 35746,
		"2ff30f735f30e8d00519cd360e69811d8038caa6800e3249b1bfd6bdd01ccb4b"},
	{"/v1/cdf?points=512", "application/x-ndjson", `"e1-8f2bcb590e4b75b2"`, 35744,
		"cb3a1f1cf0e1230aa7d7b62754acf74e7e8c1f4a92c5a0ef3eb980f45d7d7d39"},
	{"/v1/platform-diff", "application/x-ndjson", `"e1-9ae08dc63c4b978f"`, 4228,
		"87cd0fb1f87f6f4dbad6e84ad9088216e8188d25ffa08b7954dff525d0425ce9"},
}

// Over a real socket, a 200 — miss or hit — declares Content-Length
// and is not chunked, even for bodies larger than net/http's chunking
// buffer; its bytes and ETag are the pinned ones; and a 304 carries no
// body.
func TestHitPathWireShape(t *testing.T) {
	st, _, _ := fixture(t)
	ts := httptest.NewServer(serve.New(st, serve.Options{}).Handler())
	defer ts.Close()
	do := func(path, accept, inm string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	for _, g := range wireGolden {
		name := g.path + " " + g.accept
		for _, cache := range []string{"miss", "hit"} {
			resp, body := do(g.path, g.accept, "")
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != cache {
				t.Fatalf("%s: %d X-Cache %q, want 200 %s", name, resp.StatusCode, resp.Header.Get("X-Cache"), cache)
			}
			if resp.ContentLength != int64(len(body)) || resp.Header.Get("Content-Length") != fmt.Sprint(len(body)) {
				t.Errorf("%s %s: Content-Length %d (header %q), body %d bytes", name, cache, resp.ContentLength, resp.Header.Get("Content-Length"), len(body))
			}
			if len(resp.TransferEncoding) != 0 {
				t.Errorf("%s %s: Transfer-Encoding %v, want none", name, cache, resp.TransferEncoding)
			}
			if etag := resp.Header.Get("ETag"); etag != g.etag {
				t.Errorf("%s %s: ETag %s, want %s", name, cache, etag, g.etag)
			}
			if sum := fmt.Sprintf("%x", sha256.Sum256(body)); len(body) != g.len || sum != g.sha256 {
				t.Errorf("%s %s: body %d bytes sha256 %s, want %d bytes %s", name, cache, len(body), sum, g.len, g.sha256)
			}
		}
		resp, body := do(g.path, g.accept, g.etag)
		if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Errorf("%s: revalidation = %d with %d body bytes, want 304 with none", name, resp.StatusCode, len(body))
		}
	}
}
