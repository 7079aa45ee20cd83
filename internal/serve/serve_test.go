package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/asn"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/lastmile"
	"repro/internal/netaddr"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/store"
)

// fixture builds a deterministic dataset, its sealed store, and the raw
// inputs so expectations can be recomputed through the batch analyses.
func fixture(t testing.TB) (*store.Store, *dataset.Store, []pipeline.Processed) {
	t.Helper()
	ip, err := netaddr.ParseIP("192.0.2.7")
	if err != nil {
		t.Fatal(err)
	}
	type region struct {
		id, prov string
		cont     geo.Continent
		offset   float64
	}
	regions := []region{
		{"eu-frankfurt", "AMZN", geo.EU, 0},
		{"eu-london", "GCP", geo.EU, 15},
		{"na-virginia", "MSFT", geo.NA, 0},
	}
	countries := []struct {
		code string
		cont geo.Continent
		base float64
	}{
		{"DE", geo.EU, 16}, {"FR", geo.EU, 22}, {"US", geo.NA, 38},
	}
	rng := rand.New(rand.NewSource(3))
	ds := &dataset.Store{}
	for _, c := range countries {
		for _, platform := range []string{"speedchecker", "atlas"} {
			for p := 0; p < 5; p++ {
				vp := dataset.VantagePoint{
					ProbeID:  fmt.Sprintf("%s-%s-%d", platform, c.code, p),
					Platform: platform, Country: c.code, Continent: c.cont,
					ISP: asn.Number(65000 + p), Access: lastmile.WiFi,
				}
				for _, rg := range regions {
					if rg.cont != c.cont {
						continue
					}
					target := dataset.Target{
						Region: rg.id, Provider: rg.prov, Country: c.code,
						Continent: rg.cont, IP: ip,
					}
					for k := 0; k < 12; k++ {
						ds.AddPing(dataset.PingRecord{
							VP: vp, Target: target, Protocol: dataset.TCP,
							RTTms: c.base + rg.offset + rng.Float64()*5,
							Cycle: k,
						})
					}
				}
			}
		}
	}
	var processed []pipeline.Processed
	classes := []pipeline.Class{pipeline.ClassDirect, pipeline.ClassPrivate, pipeline.ClassPublic}
	for i := 0; i < 90; i++ {
		processed = append(processed, pipeline.Processed{
			Record: &dataset.TracerouteRecord{
				VP: dataset.VantagePoint{
					ProbeID: "tr", Platform: "speedchecker",
					Country: "DE", Continent: geo.EU, Access: lastmile.WiFi,
				},
				Target: dataset.Target{Provider: []string{"AMZN", "MSFT"}[i%2]},
			},
			Class: classes[i%len(classes)], EndToEndRTTms: 25,
		})
	}
	return store.FromDataset(ds, processed, store.Options{Shards: 4}), ds, processed
}

func getJSON(t *testing.T, h http.Handler, path string, out any) *httptest.ResponseRecorder {
	t.Helper()
	rec := doGet(h, path, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200 (body: %s)", path, rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", path, err)
	}
	return rec
}

func doGet(h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// Every endpoint must return exactly what the one-shot batch analysis
// computes for the same seeded world.
func TestEndpointsMatchBatchAnalysis(t *testing.T) {
	st, ds, processed := fixture(t)
	h := serve.New(st, serve.Options{}).Handler()

	var gotMap []serve.LatencyMapEntry
	getJSON(t, h, "/v1/latency-map?min=10", &gotMap)
	if want := serve.LatencyMapDTO(analysis.CollectStore(ds).LatencyMap(10)); !reflect.DeepEqual(gotMap, want) {
		t.Errorf("latency-map diverges from batch analysis:\ngot  %+v\nwant %+v", gotMap, want)
	}

	var gotCDF []serve.CDFEntry
	getJSON(t, h, "/v1/cdf?platform=speedchecker&points=32", &gotCDF)
	if want := serve.CDFDTO(analysis.CollectStore(ds).ContinentDistributions("speedchecker"), 32); !reflect.DeepEqual(gotCDF, want) {
		t.Errorf("cdf diverges from batch analysis")
	}

	var gotEU []serve.CDFEntry
	getJSON(t, h, "/v1/cdf?continent=EU", &gotEU)
	if len(gotEU) != 1 || gotEU[0].Continent != "EU" {
		t.Errorf("cdf?continent=EU returned %d entries (%+v)", len(gotEU), gotEU)
	}

	var gotDiff []serve.PlatformDiffEntry
	getJSON(t, h, "/v1/platform-diff", &gotDiff)
	if want := serve.PlatformDiffDTO(analysis.CollectStore(ds).PlatformComparison()); !reflect.DeepEqual(gotDiff, want) {
		t.Errorf("platform-diff diverges from batch analysis")
	}

	var gotPeer []serve.PeeringShareEntry
	getJSON(t, h, "/v1/peering-shares", &gotPeer)
	if want := serve.PeeringSharesDTO(analysis.Interconnections(processed)); !reflect.DeepEqual(gotPeer, want) {
		t.Errorf("peering-shares diverges from batch analysis:\ngot  %+v\nwant %+v", gotPeer, want)
	}
}

func TestETagRevalidation(t *testing.T) {
	st, _, _ := fixture(t)
	h := serve.New(st, serve.Options{}).Handler()

	first := doGet(h, "/v1/latency-map", nil)
	if first.Code != http.StatusOK {
		t.Fatalf("cold GET = %d", first.Code)
	}
	etag := first.Header().Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on response")
	}
	if first.Header().Get("X-Cache") != "miss" {
		t.Errorf("cold GET X-Cache = %q, want miss", first.Header().Get("X-Cache"))
	}

	second := doGet(h, "/v1/latency-map", map[string]string{"If-None-Match": etag})
	if second.Code != http.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", second.Code)
	}
	if second.Body.Len() != 0 {
		t.Errorf("304 carried a %d-byte body", second.Body.Len())
	}

	third := doGet(h, "/v1/latency-map", nil)
	if third.Code != http.StatusOK || third.Header().Get("X-Cache") != "hit" {
		t.Errorf("warm GET = %d X-Cache %q, want 200 hit", third.Code, third.Header().Get("X-Cache"))
	}
	if third.Header().Get("ETag") != etag {
		t.Errorf("ETag changed across identical responses: %q vs %q", third.Header().Get("ETag"), etag)
	}

	var stats serve.Statsz
	getJSON(t, h, "/v1/statsz", &stats)
	lm := stats.Endpoints["latency-map"]
	if lm.CacheHits < 2 || lm.CacheMisses != 1 || lm.NotModified != 1 {
		t.Errorf("statsz counters off: %+v", lm)
	}
	if stats.Cache.Entries != 1 {
		t.Errorf("cache entries = %d, want 1", stats.Cache.Entries)
	}
	if stats.Store.Rows == 0 || stats.Store.Shards != 4 {
		t.Errorf("statsz store summary off: %+v", stats.Store)
	}
}

func TestBadParams(t *testing.T) {
	st, _, _ := fixture(t)
	h := serve.New(st, serve.Options{}).Handler()
	for _, path := range []string{
		"/v1/latency-map?min=abc",
		"/v1/latency-map?min=0",
		"/v1/cdf?platform=carrier-pigeon",
		"/v1/cdf?points=1",
		"/v1/cdf?points=1000000",
		"/v1/cdf?continent=XX",
	} {
		rec := doGet(h, path, nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, rec.Code)
		}
		var msg map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &msg); err != nil || msg["error"] == "" {
			t.Errorf("GET %s: 400 body not a JSON error: %q", path, rec.Body.String())
		}
	}
}

func TestNDJSONNegotiation(t *testing.T) {
	st, ds, _ := fixture(t)
	h := serve.New(st, serve.Options{}).Handler()
	rec := doGet(h, "/v1/latency-map", map[string]string{"Accept": "application/x-ndjson"})
	if rec.Code != http.StatusOK {
		t.Fatalf("GET = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n")
	want := analysis.CollectStore(ds).LatencyMap(10)
	if len(lines) != len(want) {
		t.Fatalf("%d NDJSON lines, want %d", len(lines), len(want))
	}
	for i, ln := range lines {
		var e serve.LatencyMapEntry
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("line %d unparseable: %v", i, err)
		}
	}
}

// /v1/metricsz must expose live instruments as text, uncacheable and
// without an ETag — telemetry is a point-in-time reading, never
// revalidatable.
func TestMetricszExposition(t *testing.T) {
	st, _, _ := fixture(t)
	reg := obs.NewRegistry()
	h := serve.New(st, serve.Options{Obs: reg}).Handler()

	doGet(h, "/v1/latency-map", nil) // populate serve instruments
	rec := doGet(h, "/v1/metricsz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/metricsz = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}
	if cc := rec.Header().Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", cc)
	}
	if etag := rec.Header().Get("ETag"); etag != "" {
		t.Errorf("metricsz carried ETag %q; telemetry must not be revalidatable", etag)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`serve_requests_total{endpoint="latency-map"} 1`,
		`serve_request_ms_count{endpoint="latency-map"} 1`,
		`serve_cache_entries`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metricsz missing %q:\n%s", want, body)
		}
	}
	// The server's own instruments and any campaign instruments share
	// one registry: external counters appear in the same scrape.
	reg.Counter("measure_pings_total").Add(7)
	if body := doGet(h, "/v1/metricsz", nil).Body.String(); !strings.Contains(body, "measure_pings_total 7") {
		t.Errorf("externally registered counter missing from scrape:\n%s", body)
	}
}

// /v1/tracez serves the spans recorded by the per-request middleware.
func TestTracezSpans(t *testing.T) {
	st, _, _ := fixture(t)
	tr := obs.NewTracer(16)
	h := serve.New(st, serve.Options{Tracer: tr}).Handler()

	doGet(h, "/v1/latency-map", nil)
	doGet(h, "/v1/platform-diff", nil)
	var tz obs.Tracez
	getJSON(t, h, "/v1/tracez", &tz)
	if len(tz.Spans) != 2 {
		t.Fatalf("tracez has %d spans, want 2: %+v", len(tz.Spans), tz.Spans)
	}
	paths := map[string]bool{}
	for _, sp := range tz.Spans {
		if sp.Name != "serve.query" {
			t.Errorf("span name %q, want serve.query", sp.Name)
		}
		paths[sp.Attrs["path"]] = true
	}
	if !paths["/v1/latency-map"] || !paths["/v1/platform-diff"] {
		t.Errorf("span paths = %v", paths)
	}
	if len(tz.Stages) != 1 || tz.Stages[0].Name != "serve.query" || tz.Stages[0].Count != 2 {
		t.Errorf("stage rollup = %+v", tz.Stages)
	}

	// Without a tracer the endpoint still answers, with empty slices.
	var empty obs.Tracez
	getJSON(t, serve.New(st, serve.Options{}).Handler(), "/v1/tracez", &empty)
	if empty.Spans == nil || empty.Stages == nil || len(empty.Spans) != 0 {
		t.Errorf("tracer-less tracez = %+v, want empty non-nil slices", empty)
	}
}

// pprof stays off the mux unless opted in, and mounts outside the
// request timeout when enabled.
func TestPprofGate(t *testing.T) {
	st, _, _ := fixture(t)
	if rec := doGet(serve.New(st, serve.Options{}).Handler(), "/debug/pprof/cmdline", nil); rec.Code != http.StatusNotFound {
		t.Errorf("pprof without opt-in = %d, want 404", rec.Code)
	}
	on := serve.New(st, serve.Options{EnablePprof: true}).Handler()
	if rec := doGet(on, "/debug/pprof/cmdline", nil); rec.Code != http.StatusOK {
		t.Errorf("pprof with opt-in = %d, want 200", rec.Code)
	}
	if rec := doGet(on, "/v1/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("API behind pprof-enabled mux = %d, want 200", rec.Code)
	}
}

func TestHealthz(t *testing.T) {
	st, _, _ := fixture(t)
	h := serve.New(st, serve.Options{}).Handler()
	rec := doGet(h, "/v1/healthz", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("healthz = %d %q", rec.Code, rec.Body.String())
	}
}

// countingQuerier wraps the store, counting and slowing the underlying
// CDF queries so concurrent requests overlap.
type countingQuerier struct {
	*store.Store
	cdfCalls atomic.Int64
	delay    time.Duration
}

func (c *countingQuerier) ContinentCDFs(platform string) []analysis.ContinentDistribution {
	c.cdfCalls.Add(1)
	time.Sleep(c.delay)
	return c.Store.ContinentCDFs(platform)
}

// N concurrent identical cold requests must execute exactly one store
// query: the first populates the cache through the singleflight group,
// everyone else coalesces onto it (or hits the cache just after).
func TestColdRequestCoalescing(t *testing.T) {
	st, _, _ := fixture(t)
	q := &countingQuerier{Store: st, delay: 100 * time.Millisecond}
	srv := serve.New(q, serve.Options{})
	h := srv.Handler()

	const n = 32
	var wg sync.WaitGroup
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := doGet(h, "/v1/cdf?platform=atlas", nil)
			codes[i] = rec.Code
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("request %d: status %d", i, code)
		}
	}
	if got := q.cdfCalls.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d store queries, want exactly 1", n, got)
	}

	var stats serve.Statsz
	getJSON(t, h, "/v1/statsz", &stats)
	cdf := stats.Endpoints["cdf"]
	if cdf.Coalesced+cdf.CacheHits != n-1 {
		t.Errorf("coalesced (%d) + cache hits (%d) = %d, want %d",
			cdf.Coalesced, cdf.CacheHits, cdf.Coalesced+cdf.CacheHits, n-1)
	}

	// A different key is its own flight: exactly one more store query.
	doGet(h, "/v1/cdf?platform=speedchecker", nil)
	if got := q.cdfCalls.Load(); got != 2 {
		t.Errorf("distinct key ran %d total store queries, want 2", got)
	}
}

func TestCacheEviction(t *testing.T) {
	st, _, _ := fixture(t)
	h := serve.New(st, serve.Options{CacheEntries: 2}).Handler()
	for _, min := range []int{10, 11, 12, 10} {
		doGet(h, fmt.Sprintf("/v1/latency-map?min=%d", min), nil)
	}
	var stats serve.Statsz
	getJSON(t, h, "/v1/statsz", &stats)
	if stats.Cache.Entries != 2 {
		t.Errorf("cache entries = %d, want 2 (bounded)", stats.Cache.Entries)
	}
	if stats.Cache.Evictions == 0 {
		t.Error("expected evictions after overflowing a 2-entry cache")
	}
	// min=10 was evicted by 11/12, so the 4th request must be a miss.
	if lm := stats.Endpoints["latency-map"]; lm.CacheMisses != 4 {
		t.Errorf("misses = %d, want 4", lm.CacheMisses)
	}
}

func TestInvalidateCache(t *testing.T) {
	st, _, _ := fixture(t)
	srv := serve.New(st, serve.Options{})
	h := srv.Handler()
	doGet(h, "/v1/peering-shares", nil)
	srv.InvalidateCache()
	rec := doGet(h, "/v1/peering-shares", nil)
	if rec.Header().Get("X-Cache") != "miss" {
		t.Errorf("post-invalidation GET X-Cache = %q, want miss", rec.Header().Get("X-Cache"))
	}
}

// The server must drain gracefully: a cancelled context stops the
// listener, in-flight requests finish, and ServeListener returns nil.
func TestGracefulShutdown(t *testing.T) {
	st, _, _ := fixture(t)
	srv := serve.New(st, serve.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serve.ServeListener(ctx, ln, srv.Handler()) }()

	resp, err := http.Get("http://" + ln.Addr().String() + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over TCP = %d", resp.StatusCode)
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
}
