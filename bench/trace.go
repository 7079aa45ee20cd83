package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/serve"
	"repro/internal/store"
)

// Spans are recorded from the benchmark's own files, around its calls
// into each layer: the generator's exchange, a wrapper around the
// server's http.Handler, a wrapper around the serve.Querier handed to
// serve.New. Nothing inside the program is touched (its obs.Tracer
// stays nil). Spans live in memory and are written when the run ends.

// Span names, one per layer boundary.
const (
	spanRequest = "load.request"  // generator: due instant → response read
	spanHandler = "serve.handler" // wrapper around srv.Handler()
	spanQuery   = "querier.query" // wrapper around the Querier: the store or the segment reader
)

// span is one timed call. A request's spans share Req; Parent is the
// ID of the span that caused this one (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	// Cache is the response's X-Cache on handler spans.
	Cache string `json:"cache,omitempty"`
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// Span IDs derive from the request id, so the three layers agree on
// them without talking to each other.
func requestSpanID(req int) int64 { return int64(req)*4 + 1 }
func handlerSpanID(req int) int64 { return int64(req)*4 + 2 }
func querySpanID(req int) int64   { return int64(req)*4 + 3 }

// recorder collects spans while on; off, the wrappers pass straight
// through.
type recorder struct {
	on    atomic.Bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	// open lists, per endpoint path, the requests inside the handler
	// that have not reached the Querier yet, oldest first. The Querier
	// interface carries no context, so a query is attributed to the
	// oldest such request of its endpoint; with nproc connections two
	// candidates are rare and asking for the same figure.
	open map[string][]int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), open: map[string][]int{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// handler wraps the server's handler with the serve.handler span.
func (r *recorder) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		id, _ := strconv.Atoi(req.Header.Get("X-Bench-Req"))
		endpoint := strings.TrimPrefix(req.URL.Path, "/v1/")
		r.mu.Lock()
		r.open[endpoint] = append(r.open[endpoint], id)
		r.mu.Unlock()
		start := r.now()
		h.ServeHTTP(w, req)
		end := r.now()
		r.mu.Lock()
		r.drop(endpoint, id)
		r.spans = append(r.spans, span{
			ID: handlerSpanID(id), Parent: requestSpanID(id), Req: id, Name: spanHandler,
			StartNs: start, EndNs: end, Cache: w.Header().Get("X-Cache"),
		})
		r.mu.Unlock()
	})
}

// drop removes id from endpoint's open list; r.mu is held.
func (r *recorder) drop(endpoint string, id int) {
	ids := r.open[endpoint]
	for i, v := range ids {
		if v == id {
			r.open[endpoint] = append(ids[:i], ids[i+1:]...)
			return
		}
	}
}

// query times one Querier call for fig; the returned func ends it.
func (r *recorder) query(fig figure) func() {
	if !r.on.Load() {
		return func() {}
	}
	endpoint := fig.String()
	r.mu.Lock()
	id := -1
	if ids := r.open[endpoint]; len(ids) > 0 {
		id = ids[0]
		r.open[endpoint] = ids[1:]
	}
	r.mu.Unlock()
	start := r.now()
	return func() {
		end := r.now()
		if id < 0 {
			return // a query no recorded request caused (set-up traffic)
		}
		r.add(span{ID: querySpanID(id), Parent: handlerSpanID(id), Req: id, Name: spanQuery, StartNs: start, EndNs: end})
	}
}

// request records the generator-side span of one open-loop request.
func (r *recorder) request(id int, phaseStart time.Time, o outcome) {
	base := int64(phaseStart.Sub(r.epoch))
	r.add(span{ID: requestSpanID(id), Req: id, Name: spanRequest,
		StartNs: base + int64(o.due), EndNs: base + int64(o.done)})
}

// write stores the spans as one JSON document.
func (r *recorder) write(workload string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	body, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), append(body, '\n'), 0o644)
}

// byName returns the recorded spans of one name, keyed by request.
func (r *recorder) byName(name string) map[int]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[int]span{}
	for _, s := range r.spans {
		if s.Name == name {
			out[s.Req] = s
		}
	}
	return out
}

// tracedQuerier wraps the Querier handed to serve.New with the
// querier.query span. Summary is not a figure query and passes
// through.
type tracedQuerier struct {
	q   serve.Querier
	rec *recorder
}

func (t tracedQuerier) LatencyMap(minSamples int) []analysis.CountryLatency {
	defer t.rec.query(figLatencyMap)()
	return t.q.LatencyMap(minSamples)
}

func (t tracedQuerier) LatencyMapWindow(minSamples int, w store.Window) []analysis.CountryLatency {
	defer t.rec.query(figLatencyMap)()
	return t.q.LatencyMapWindow(minSamples, w)
}

func (t tracedQuerier) ContinentCDFs(platform string) []analysis.ContinentDistribution {
	defer t.rec.query(figCDF)()
	return t.q.ContinentCDFs(platform)
}

func (t tracedQuerier) ContinentCDFsWindow(platform string, w store.Window) []analysis.ContinentDistribution {
	defer t.rec.query(figCDF)()
	return t.q.ContinentCDFsWindow(platform, w)
}

func (t tracedQuerier) PlatformDiff() []analysis.PlatformDiff {
	defer t.rec.query(figPlatformDiff)()
	return t.q.PlatformDiff()
}

func (t tracedQuerier) PlatformDiffWindow(w store.Window) []analysis.PlatformDiff {
	defer t.rec.query(figPlatformDiff)()
	return t.q.PlatformDiffWindow(w)
}

func (t tracedQuerier) PeeringShares() []analysis.InterconnectShare {
	defer t.rec.query(figPeering)()
	return t.q.PeeringShares()
}

func (t tracedQuerier) PeeringSharesWindow(w store.Window) []analysis.InterconnectShare {
	defer t.rec.query(figPeering)()
	return t.q.PeeringSharesWindow(w)
}

func (t tracedQuerier) Changepoint(platform string, at, width int) []store.ChangepointEntry {
	defer t.rec.query(figChangepoint)()
	return t.q.Changepoint(platform, at, width)
}

func (t tracedQuerier) Summary() store.Summary { return t.q.Summary() }
