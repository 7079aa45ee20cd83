// Package serve exposes a sealed measurement store as an HTTP query
// service: the paper's headline figures as versioned endpoints with
// request coalescing (one store query per key no matter how many
// concurrent identical requests arrive), a bounded LRU response cache
// with ETag revalidation, JSON/NDJSON content negotiation, a deadline
// on every request that runs a query, and graceful drain on shutdown.
//
// Three robustness layers stand between the listener and the store
// (DESIGN.md §11):
//
//   - Admission control (internal/admit): a global concurrency ceiling
//     sheds excess load with 503 before a request can reach the cache
//     or start a query, and per-client token buckets answer 429 with
//     Retry-After once a client outruns its quota.
//   - The store behind the server is swappable while serving: Swap
//     atomically replaces the Querier and bumps the store epoch; cache
//     keys, singleflight keys and ETags all carry the epoch, so a
//     request observes exactly one store and a stale If-None-Match can
//     never be confirmed with a 304 after a swap.
//   - Liveness and readiness are split: /v1/healthz answers as long as
//     the process runs, /v1/readyz answers 200 only while a store is
//     mounted, admission is initialized and the server is not
//     draining — and graceful drain flips readiness first, so load
//     balancers stop routing before the listener closes.
//
// Endpoints:
//
//	/v1/latency-map    Figure 3: per-country median RTT map
//	/v1/cdf            Figure 4: per-continent latency CDFs
//	/v1/platform-diff  Figure 5: Speedchecker − Atlas percentile diffs
//	/v1/peering-shares Figure 10: interconnection class shares
//	/v1/changepoint    country×provider pairs ranked by RTT shift across a cycle
//	/v1/healthz        liveness (process up; bypasses admission)
//	/v1/readyz         readiness (store mounted, not draining; bypasses admission)
//	/v1/statsz         cache, store and per-endpoint counters (JSON)
//	/v1/metricsz       the obs registry, text exposition (bypasses admission)
//	/v1/tracez         recent spans and per-stage latency rollups
//
// With Options.EnablePprof the standard /debug/pprof/ endpoints mount
// alongside /v1, outside admission and the query deadline (profiles
// stream for longer than any query is allowed to run).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/admit"
	"repro/internal/analysis"
	"repro/internal/obs"
	"repro/internal/store"
)

// Querier is the store surface the server needs. *store.Store satisfies
// it; tests wrap it to count underlying queries. Every figure query has
// a windowed variant restricting it to a half-open cycle interval on
// the campaign time axis, and the unwindowed form is exactly the
// windowed one over Window{}, the whole campaign. Handlers call only
// the windowed form, so a wrapper intercepts a figure there; the
// unwindowed methods stay because bench/ wraps and calls them
// (ROADMAP item 4).
type Querier interface {
	LatencyMap(minSamples int) []analysis.CountryLatency
	ContinentCDFs(platform string) []analysis.ContinentDistribution
	PlatformDiff() []analysis.PlatformDiff
	PeeringShares() []analysis.InterconnectShare
	LatencyMapWindow(minSamples int, w store.Window) []analysis.CountryLatency
	ContinentCDFsWindow(platform string, w store.Window) []analysis.ContinentDistribution
	PlatformDiffWindow(w store.Window) []analysis.PlatformDiff
	PeeringSharesWindow(w store.Window) []analysis.InterconnectShare
	Changepoint(platform string, at, width int) []store.ChangepointEntry
	Summary() store.Summary
}

// Options tunes the server.
type Options struct {
	// CacheEntries bounds the LRU response cache (default 256).
	CacheEntries int
	// Timeout bounds each data request that has to run a query: past it
	// the client gets a 503 while the query finishes in the background
	// and fills the cache. Cache hits do no work and carry no deadline
	// (default 5s).
	Timeout time.Duration
	// Obs is the registry behind /v1/metricsz and the per-endpoint
	// counters in /v1/statsz. Share the campaign's registry here and one
	// scrape shows the whole spine. Nil gets a private registry, so the
	// endpoints work either way.
	Obs *obs.Registry
	// Tracer makes every request record a "serve.query" span and backs
	// /v1/tracez. Nil disables spans; /v1/tracez then serves an empty
	// (but well-formed) payload.
	Tracer *obs.Tracer
	// StoreMode labels the Querier backing in /v1/statsz — "memory" for
	// an in-process sealed store, "segments" / "segments-exact" for an
	// mmap-backed segment directory. Purely informational; empty omits
	// the field.
	StoreMode string
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose internals and should be opted
	// into per deployment.
	EnablePprof bool
	// Admit configures admission control. The zero value enables both
	// layers with the admit defaults (per-client 100 req/s with a 200
	// burst, 1024 requests in flight); set RatePerSec or MaxInFlight
	// negative to disable a layer. Obs and Clock are filled in by the
	// server when unset.
	Admit admit.Options
}

func (o Options) withDefaults() Options {
	if o.CacheEntries <= 0 {
		o.CacheEntries = 256
	}
	if o.Timeout <= 0 {
		o.Timeout = 5 * time.Second
	}
	return o
}

const (
	// defaultMinMapSamples is the per-country sample floor of
	// /v1/latency-map when the request has no min parameter.
	defaultMinMapSamples = 10
	// defaultCDFPoints is the curve resolution of /v1/cdf when the
	// request has no points parameter.
	defaultCDFPoints = 64
	// maxCDFPoints bounds the points parameter so one request cannot ask
	// for an absurd curve.
	maxCDFPoints = 4096
)

// epochStore pairs a store with the epoch it was mounted under. One
// atomic load hands a request both halves, so a request can never
// observe store A with epoch B — the pair is immutable after Swap.
type epochStore struct {
	q     Querier
	epoch uint64
}

// Server answers the /v1 API over a swappable Querier.
type Server struct {
	cur      atomic.Pointer[epochStore]
	epoch    atomic.Uint64
	draining atomic.Bool
	opts     Options
	reg      *obs.Registry
	tracer   *obs.Tracer
	cache    *lruCache
	flights  *flightGroup
	metrics  *metricSet
	admit    *admit.Controller
	mSwaps   *obs.Counter
	gEpoch   *obs.Gauge
	start    time.Time
}

// New builds a server over q, mounted as store epoch 1.
func New(q Querier, opts Options) *Server {
	opts = opts.withDefaults()
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		opts:    opts,
		reg:     reg,
		tracer:  opts.Tracer,
		cache:   newLRUCache(opts.CacheEntries),
		flights: newFlightGroup(),
		metrics: newMetricSet(reg, "latency-map", "cdf", "platform-diff", "peering-shares",
			"changepoint", "healthz", "readyz", "statsz", "metricsz", "tracez"),
		mSwaps: reg.Counter("serve_store_swaps_total"),
		gEpoch: reg.Gauge("serve_store_epoch"),
		start:  time.Now(),
	}
	ao := opts.Admit
	ao.Obs = reg
	if ao.Clock == nil {
		// Admission never reads the wall clock itself; the HTTP layer
		// (norawtime-exempt) hands it a monotonic stopwatch.
		ao.Clock = func() time.Duration { return time.Since(s.start) }
	}
	s.admit = admit.New(ao)
	s.epoch.Store(1)
	s.gEpoch.Set(1)
	s.cur.Store(&epochStore{q: q, epoch: 1})
	// Cache occupancy and evictions live in the LRU; expose them as
	// callbacks rather than mirroring every put.
	reg.GaugeFunc("serve_cache_entries", func() float64 {
		entries, _, _ := s.cache.stats()
		return float64(entries)
	})
	reg.GaugeFunc("serve_cache_evictions", func() float64 {
		_, _, evictions := s.cache.stats()
		return float64(evictions)
	})
	return s
}

// Swap atomically replaces the served store and returns the new epoch.
// In-flight requests finish against the store they loaded at entry;
// every later request sees the new pair. The response cache is purged
// (old-epoch entries are unreachable anyway — keys carry the epoch —
// but holding dead bodies in the LRU would waste its capacity), and
// because ETags embed the epoch, a client revalidating a pre-swap ETag
// always receives a full 200 with the new body, never a stale 304.
//
// Swap is the live re-seal hook: a new campaign streams into a fresh
// store.Feed while this server keeps answering from the sealed store,
// and the finished seal is mounted here with zero dropped requests.
func (s *Server) Swap(q Querier) uint64 {
	epoch := s.epoch.Add(1)
	s.cur.Store(&epochStore{q: q, epoch: epoch})
	s.cache.purge()
	s.mSwaps.Inc()
	s.gEpoch.Set(int64(epoch))
	return epoch
}

// current returns the mounted (store, epoch) pair.
func (s *Server) current() *epochStore { return s.cur.Load() }

// BeginDrain marks the server as draining: /v1/readyz starts answering
// 503 so load balancers route new traffic elsewhere, while in-flight
// and straggler requests keep being served until the listener closes.
// Drain is one-way; a draining server never becomes ready again.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Ready reports whether the server would answer /v1/readyz with 200.
func (s *Server) Ready() bool {
	return !s.draining.Load() && s.cur.Load() != nil && s.admit != nil
}

// Handler returns the routed HTTP handler. The data endpoints sit
// behind admission control: the concurrency ceiling sheds with a cheap
// 503 before a request reaches the cache. Each request is served on its
// connection's goroutine, and a cached body is written straight to the
// socket; only a cache miss waits on a deadline (Options.Timeout, see
// respond). The control endpoints (healthz, readyz, metricsz) bypass
// admission — an operator must be able to probe, scrape and profile a
// saturated server — as do the pprof endpoints when enabled.
func (s *Server) Handler() http.Handler {
	data := http.NewServeMux()
	data.HandleFunc("/v1/latency-map", s.handleLatencyMap)
	data.HandleFunc("/v1/cdf", s.handleCDF)
	data.HandleFunc("/v1/platform-diff", s.handlePlatformDiff)
	data.HandleFunc("/v1/peering-shares", s.handlePeeringShares)
	data.HandleFunc("/v1/changepoint", s.handleChangepoint)
	data.HandleFunc("/v1/statsz", s.handleStatsz)
	data.HandleFunc("/v1/tracez", s.handleTracez)
	api := s.withAdmission(s.withTrace(data))

	outer := http.NewServeMux()
	outer.Handle("/", api)
	outer.HandleFunc("/v1/healthz", s.handleHealthz)
	outer.HandleFunc("/v1/readyz", s.handleReadyz)
	outer.HandleFunc("/v1/metricsz", s.handleMetricsz)
	if s.opts.EnablePprof {
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return outer
}

// withAdmission wraps the data endpoints with the two admission
// layers: the global concurrency ceiling (503, shed) and the
// per-client token bucket (429, Retry-After). The client key is the
// X-Client-ID header when present — multiplexed proxies can pass
// through end-client identity — else the remote host.
func (s *Server) withAdmission(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, ok := s.admit.Acquire()
		if !ok {
			w.Header().Set("Content-Type", ctJSON)
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"server overloaded, request shed"}`)
			return
		}
		defer release()
		if ok, retry := s.admit.Allow(clientKey(r)); !ok {
			w.Header().Set("Content-Type", ctJSON)
			w.Header().Set("Retry-After", retryAfterSeconds(retry))
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"client quota exhausted"}`)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// clientKey identifies the client for quota accounting.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// retryAfterSeconds renders a Retry-After value: whole seconds,
// rounded up, at least 1 (a zero Retry-After invites an instant retry
// storm).
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// withTrace wraps the API mux so every request runs under a
// "serve.query" span recorded into the server's tracer. Without a
// tracer the handler is returned unwrapped — zero per-request cost.
func (s *Server) withTrace(h http.Handler) http.Handler {
	if s.tracer == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := obs.ContextWithTracer(r.Context(), s.tracer)
		ctx, span := obs.StartSpan(ctx, "serve.query")
		span.SetAttr("path", r.URL.Path)
		defer span.End()
		h.ServeHTTP(w, r.WithContext(ctx))
	})
}

// ---- DTOs ----
// The wire forms mirror the analysis structs field-for-field but spell
// enums as strings, so responses are self-describing without the Go
// type definitions.

// LatencyMapEntry is the wire form of analysis.CountryLatency.
type LatencyMapEntry struct {
	Country   string  `json:"country"`
	Continent string  `json:"continent"`
	MedianMs  float64 `json:"median_ms"`
	CILowMs   float64 `json:"ci_low_ms"`
	CIHighMs  float64 `json:"ci_high_ms"`
	Band      string  `json:"band"`
	Samples   int     `json:"samples"`
}

// LatencyMapDTO converts batch analysis output to the wire form.
func LatencyMapDTO(entries []analysis.CountryLatency) []LatencyMapEntry {
	out := make([]LatencyMapEntry, len(entries))
	for i, e := range entries {
		out[i] = LatencyMapEntry{
			Country: e.Country, Continent: e.Continent.String(),
			MedianMs: e.MedianMs, CILowMs: e.CILowMs, CIHighMs: e.CIHighMs,
			Band: e.Band.String(), Samples: e.Samples,
		}
	}
	return out
}

// CDFEntry is the wire form of analysis.ContinentDistribution: the
// curve sampled at a fixed number of points plus the QoE fractions.
type CDFEntry struct {
	Continent string       `json:"continent"`
	N         int          `json:"n"`
	UnderMTP  float64      `json:"under_mtp"`
	UnderHPL  float64      `json:"under_hpl"`
	UnderHRT  float64      `json:"under_hrt"`
	Series    [][2]float64 `json:"series"` // (rtt_ms, P(X≤rtt)) pairs
}

// CDFDTO converts batch analysis output to the wire form.
func CDFDTO(dists []analysis.ContinentDistribution, points int) []CDFEntry {
	out := make([]CDFEntry, len(dists))
	for i, d := range dists {
		out[i] = CDFEntry{
			Continent: d.Continent.String(), N: d.N,
			UnderMTP: d.UnderMTP, UnderHPL: d.UnderHPL, UnderHRT: d.UnderHRT,
			Series: d.CDF.Series(points),
		}
	}
	return out
}

// PlatformDiffEntry is the wire form of analysis.PlatformDiff.
type PlatformDiffEntry struct {
	Continent        string    `json:"continent"`
	DiffsMs          []float64 `json:"diffs_ms"`
	AtlasFasterShare float64   `json:"atlas_faster_share"`
	NSpeedchecker    int       `json:"n_speedchecker"`
	NAtlas           int       `json:"n_atlas"`
}

// PlatformDiffDTO converts batch analysis output to the wire form.
func PlatformDiffDTO(diffs []analysis.PlatformDiff) []PlatformDiffEntry {
	out := make([]PlatformDiffEntry, len(diffs))
	for i, d := range diffs {
		out[i] = PlatformDiffEntry{
			Continent: d.Continent.String(), DiffsMs: d.Diffs,
			AtlasFasterShare: d.AtlasFasterShare,
			NSpeedchecker:    d.NSC, NAtlas: d.NAtlas,
		}
	}
	return out
}

// PeeringShareEntry is the wire form of analysis.InterconnectShare.
type PeeringShareEntry struct {
	Provider   string  `json:"provider"`
	DirectPct  float64 `json:"direct_pct"`
	OneASPct   float64 `json:"one_as_pct"`
	MultiASPct float64 `json:"multi_as_pct"`
	N          int     `json:"n"`
}

// PeeringSharesDTO converts batch analysis output to the wire form.
func PeeringSharesDTO(shares []analysis.InterconnectShare) []PeeringShareEntry {
	out := make([]PeeringShareEntry, len(shares))
	for i, sh := range shares {
		out[i] = PeeringShareEntry{
			Provider: sh.Provider, DirectPct: sh.DirectPct,
			OneASPct: sh.OneASPct, MultiASPct: sh.MultiASPct, N: sh.N,
		}
	}
	return out
}

// Statsz is the /v1/statsz payload.
type Statsz struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	StoreEpoch    uint64  `json:"store_epoch"`
	Ready         bool    `json:"ready"`
	// StoreMode names the backing of the mounted Querier when the
	// operator declared one ("memory", "segments", "segments-exact");
	// empty when unset.
	StoreMode string                   `json:"store_mode,omitempty"`
	Store     store.Summary            `json:"store"`
	Cache     CacheStats               `json:"cache"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
}

// CacheStats describes the response cache.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Evictions uint64 `json:"evictions"`
}

// ---- handlers ----

func (s *Server) handleLatencyMap(w http.ResponseWriter, r *http.Request) {
	minSamples := defaultMinMapSamples
	if err := intParam(r.URL.Query(), "min", 1, 1<<30, &minSamples); err != nil {
		s.badRequest(w, "latency-map", err)
		return
	}
	win, err := windowParam(r.URL.Query())
	if err != nil {
		s.badRequest(w, "latency-map", err)
		return
	}
	key := fmt.Sprintf("min=%d&%s", minSamples, windowKey(win))
	s.respond(w, r, "latency-map", key, func(q Querier) answer {
		return rows[LatencyMapEntry]{LatencyMapDTO(q.LatencyMapWindow(minSamples, win)), (*encoder).latencyMapEntry}
	})
}

func (s *Server) handleCDF(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	platform, err := platformParam(q)
	if err != nil {
		s.badRequest(w, "cdf", err)
		return
	}
	points := defaultCDFPoints
	if err := intParam(q, "points", 2, maxCDFPoints, &points); err != nil {
		s.badRequest(w, "cdf", err)
		return
	}
	continent := strings.ToUpper(q.Get("continent"))
	if continent != "" {
		if _, perr := parseContinent(continent); perr != nil {
			s.badRequest(w, "cdf", perr)
			return
		}
	}
	win, err := windowParam(q)
	if err != nil {
		s.badRequest(w, "cdf", err)
		return
	}
	key := fmt.Sprintf("platform=%s&continent=%s&points=%d&%s", platform, continent, points, windowKey(win))
	s.respond(w, r, "cdf", key, func(q Querier) answer {
		dists := q.ContinentCDFsWindow(platform, win)
		if continent != "" {
			kept := dists[:0:0]
			for _, d := range dists {
				if d.Continent.String() == continent {
					kept = append(kept, d)
				}
			}
			dists = kept
		}
		return rows[CDFEntry]{CDFDTO(dists, points), (*encoder).cdfEntry}
	})
}

func (s *Server) handlePlatformDiff(w http.ResponseWriter, r *http.Request) {
	win, err := windowParam(r.URL.Query())
	if err != nil {
		s.badRequest(w, "platform-diff", err)
		return
	}
	s.respond(w, r, "platform-diff", windowKey(win), func(q Querier) answer {
		return rows[PlatformDiffEntry]{PlatformDiffDTO(q.PlatformDiffWindow(win)), (*encoder).platformDiffEntry}
	})
}

func (s *Server) handlePeeringShares(w http.ResponseWriter, r *http.Request) {
	win, err := windowParam(r.URL.Query())
	if err != nil {
		s.badRequest(w, "peering-shares", err)
		return
	}
	s.respond(w, r, "peering-shares", windowKey(win), func(q Querier) answer {
		return rows[PeeringShareEntry]{PeeringSharesDTO(q.PeeringSharesWindow(win)), (*encoder).peeringShareEntry}
	})
}

// handleChangepoint serves the longitudinal event detector: every
// country×provider pair ranked by how much its RTT distribution shifted
// across the split cycle `at` (default: the campaign midpoint, where
// the scenario plane schedules its events). `width` bounds each side's
// comparison window to that many cycles; zero compares everything
// before against everything after. The store's entries are already
// wire-shaped, so no DTO conversion is needed.
func (s *Server) handleChangepoint(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	platform, err := platformParam(q)
	if err != nil {
		s.badRequest(w, "changepoint", err)
		return
	}
	at, width := 0, 0
	if err := intParam(q, "at", 1, 1<<30, &at); err != nil {
		s.badRequest(w, "changepoint", err)
		return
	}
	if err := intParam(q, "width", 1, 1<<30, &width); err != nil {
		s.badRequest(w, "changepoint", err)
		return
	}
	key := fmt.Sprintf("platform=%s&at=%d&width=%d", platform, at, width)
	s.respond(w, r, "changepoint", key, func(q Querier) answer {
		split := at
		if split <= 0 {
			if c := q.Summary().Cycles; c > 1 {
				split = c / 2
			} else {
				split = 1
			}
		}
		return rows[store.ChangepointEntry]{q.Changepoint(platform, split, width), (*encoder).changepointEntry}
	})
}

// handleHealthz is pure liveness: it answers 200 as long as the
// process can run a handler, even while draining or swapping — restart
// decisions must not be coupled to routing decisions.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.metrics.of("healthz").requests.Inc()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// handleReadyz is routability: 200 only while a store is mounted,
// admission is initialized and the server is not draining. Graceful
// shutdown flips this to 503 before the listener closes, so load
// balancers drain the instance instead of surfacing connection resets.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.metrics.of("readyz").requests.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	if !s.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintf(w, "{\"status\":\"ready\",\"epoch\":%d}\n", s.epoch.Load())
}

// handleMetricsz serves the registry's text exposition. Telemetry is a
// point-in-time reading: no ETag, Cache-Control forbids storing, so a
// scraper can never be handed a stale snapshot by an intermediary.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	s.metrics.of("metricsz").requests.Inc()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Cache-Control", "no-store")
	s.reg.WriteMetrics(w)
}

// handleTracez serves the recent spans and per-stage latency rollups.
func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	s.metrics.of("tracez").requests.Inc()
	body, err := json.Marshal(s.tracer.Export())
	if err != nil {
		http.Error(w, `{"error":"marshal failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-store")
	w.Write(append(body, '\n'))
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.metrics.of("statsz").requests.Inc()
	entries, capacity, evictions := s.cache.stats()
	es := s.current()
	payload := Statsz{
		UptimeSeconds: time.Since(s.start).Seconds(),
		StoreEpoch:    es.epoch,
		Ready:         s.Ready(),
		StoreMode:     s.opts.StoreMode,
		Store:         es.q.Summary(),
		Cache:         CacheStats{Entries: entries, Capacity: capacity, Evictions: evictions},
		Endpoints:     s.metrics.snapshot(),
	}
	body, err := json.Marshal(payload)
	if err != nil {
		http.Error(w, `{"error":"marshal failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// ---- request plumbing ----

const (
	ctJSON   = "application/json"
	ctNDJSON = "application/x-ndjson"
)

// negotiate picks the response encoding: NDJSON when the client asks
// for it via Accept, JSON otherwise.
func negotiate(r *http.Request) string {
	if strings.Contains(r.Header.Get("Accept"), ctNDJSON) {
		return ctNDJSON
	}
	return ctJSON
}

// respond runs the cached/coalesced read path: canonical key → LRU →
// singleflight compute → encode → cache, with ETag revalidation at
// every exit. The (store, epoch) pair is loaded exactly once per
// request — the compute closure runs against that snapshot, and the
// epoch prefixes the cache and singleflight keys, so concurrent
// requests racing a Swap coalesce per-epoch and each one's cache
// entry, ETag and X-Store-Epoch all describe the same store.
//
// A hit is answered at once. A miss waits for its flight at most
// Options.Timeout and then answers 503 with nothing written before;
// the flight runs on, fills the cache, and a retry is a hit.
func (s *Server) respond(w http.ResponseWriter, r *http.Request, endpoint, params string, compute func(q Querier) answer) {
	m := s.metrics.of(endpoint)
	m.requests.Inc()
	m.inFlight.Add(1)
	started := time.Now()
	defer func() {
		m.inFlight.Add(-1)
		m.observe(time.Since(started))
	}()

	es := s.current()
	contentType := negotiate(r)
	key := fmt.Sprintf("e%d:%s?%s&ct=%s", es.epoch, endpoint, params, contentType)

	if res, ok := s.cache.get(key); ok {
		m.cacheHits.Inc()
		s.write(w, r, m, res, "hit")
		return
	}
	m.cacheMisses.Inc()
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()
	res, shared, err := s.flights.do(ctx, key, func() computed {
		body, err := encode(compute(es.q), contentType)
		if err != nil {
			return computed{err: err}
		}
		res := computed{body: body, etag: etagOf(es.epoch, key, body), contentType: contentType, epoch: es.epoch}
		s.cache.put(key, res)
		return res
	})
	if shared {
		m.coalesced.Inc()
	}
	if err != nil {
		m.errors.Inc()
		w.Header().Set("Content-Type", ctJSON)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"error":"request timed out"}`)
		return
	}
	if res.err != nil {
		m.errors.Inc()
		http.Error(w, `{"error":"internal query failure"}`, http.StatusInternalServerError)
		return
	}
	s.write(w, r, m, res, "miss")
}

// write emits one computed response, honouring If-None-Match. The ETag
// embeds the store epoch, so a conditional request made before a Swap
// can never be confirmed against the new store — the tags differ even
// when the bodies happen to hash alike. A 200 declares its length and
// hands the cached bytes to the connection in one Write: no copy, no
// chunking.
func (s *Server) write(w http.ResponseWriter, r *http.Request, m *endpointInstruments, res computed, cacheState string) {
	w.Header().Set("ETag", res.etag)
	w.Header().Set("Cache-Control", "no-cache") // revalidate via ETag
	w.Header().Set("X-Cache", cacheState)
	w.Header().Set("X-Store-Epoch", strconv.FormatUint(res.epoch, 10))
	if etagMatches(r.Header.Get("If-None-Match"), res.etag) {
		m.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", res.contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(res.body)))
	w.Write(res.body)
}

// etagOf derives the entity tag from the store epoch plus a hash of the
// canonical request key and the body: "e<epoch>-<fnv64a>". The epoch
// prefix is the zero-drop swap guarantee — validators from different
// epochs never compare equal — and hashing the key (which carries the
// endpoint, the cycle window and every other parameter) keeps two
// windows that happen to render the same bytes from sharing a
// validator.
func etagOf(epoch uint64, key string, body []byte) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write(body)
	sum := h.Sum64()
	tag := make([]byte, 0, len(`"e-0123456789abcdef"`)+20)
	tag = append(tag, `"e`...)
	tag = strconv.AppendUint(tag, epoch, 10)
	tag = append(tag, '-')
	for shift := 60; shift >= 0; shift -= 4 {
		tag = append(tag, "0123456789abcdef"[sum>>shift&0xf])
	}
	return string(append(tag, '"'))
}

// etagMatches implements the If-None-Match comparison over a
// comma-separated candidate list.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}

func (s *Server) badRequest(w http.ResponseWriter, endpoint string, err error) {
	s.metrics.of(endpoint).requests.Inc()
	s.metrics.of(endpoint).errors.Inc()
	w.Header().Set("Content-Type", ctJSON)
	w.WriteHeader(http.StatusBadRequest)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// intParam parses an optional integer query parameter into dst,
// enforcing [lo, hi].
func intParam(q url.Values, name string, lo, hi int, dst *int) error {
	raw := q.Get(name)
	if raw == "" {
		return nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return fmt.Errorf("parameter %q must be an integer, got %q", name, raw)
	}
	if v < lo || v > hi {
		return fmt.Errorf("parameter %q must be in [%d, %d], got %d", name, lo, hi, v)
	}
	*dst = v
	return nil
}

// windowParam parses the optional from/to cycle parameters every figure
// endpoint accepts: the half-open window [from, to) on the campaign
// cycle axis. Absent (or zero) bounds are unconstrained, mirroring
// store.Window semantics.
func windowParam(q url.Values) (store.Window, error) {
	var from, to int
	if err := intParam(q, "from", 0, 1<<30, &from); err != nil {
		return store.Window{}, err
	}
	if err := intParam(q, "to", 0, 1<<30, &to); err != nil {
		return store.Window{}, err
	}
	if from > 0 && to > 0 && from >= to {
		return store.Window{}, fmt.Errorf("cycle window [%d, %d) is empty", from, to)
	}
	return store.Window{From: from, To: to}, nil
}

// windowKey canonicalizes a window for cache keys and ETags.
func windowKey(w store.Window) string {
	return fmt.Sprintf("from=%d&to=%d", w.From, w.To)
}

func platformParam(q url.Values) (string, error) {
	platform := q.Get("platform")
	switch platform {
	case "":
		return "speedchecker", nil
	case "speedchecker", "atlas":
		return platform, nil
	}
	return "", fmt.Errorf("parameter %q must be speedchecker or atlas, got %q", "platform", platform)
}

// ---- lifecycle ----

// ListenAndServe serves the server's Handler on addr until ctx is
// cancelled, then drains: readiness flips to 503 first (load balancers
// stop routing), then in-flight requests finish gracefully.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.ServeListener(ctx, ln)
}

// ServeListener is Server.ListenAndServe over an existing listener
// (tests pass one bound to an ephemeral port).
func (s *Server) ServeListener(ctx context.Context, ln net.Listener) error {
	return serveListener(ctx, ln, s.Handler(), s.BeginDrain)
}

// ServeListener serves h on ln until ctx is cancelled, then drains
// in-flight requests gracefully before returning. Prefer the Server
// method, which also flips /v1/readyz before draining.
func ServeListener(ctx context.Context, ln net.Listener, h http.Handler) error {
	return serveListener(ctx, ln, h, nil)
}

func serveListener(ctx context.Context, ln net.Listener, h http.Handler, beginDrain func()) error {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		if beginDrain != nil {
			beginDrain() // readyz → 503 before the listener closes
		}
		drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(drainCtx)
	}()
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Surface drain errors (requests still running past the grace
	// period) rather than swallowing them.
	return <-done
}

// parseContinent validates the continent query parameter against the
// continents the analyses know.
func parseContinent(s string) (string, error) {
	for _, c := range knownContinents {
		if c == s {
			return s, nil
		}
	}
	return "", fmt.Errorf("parameter %q must be one of %s, got %q", "continent", strings.Join(knownContinents, "/"), s)
}

var knownContinents = []string{"EU", "NA", "SA", "AS", "AF", "OC"}
