package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/admit"
	"repro/internal/obs"
	"repro/internal/segment"
	"repro/internal/serve"
	"repro/internal/store"
)

// serveSpec is one serve workload. Everything in it is frozen: the
// rate is 40 % of the seed commit's closed-loop capacity on the 2-core
// reference box, rounded to two significant digits (serve-hot keeps the
// 2000/s the issue sized it at, which is nearer 10 %), and stays put
// when the program gets faster — that is what makes lat_* of two
// commits comparable.
type serveSpec struct {
	name   string
	hot    bool          // 32 repeated keys instead of distinct ones
	sketch bool          // mount the store as a segment directory, sketch mode
	rate   float64       // open-loop arrivals per second
	limit  time.Duration // latency limit behind slo_ok_ratio
	tail   float64       // percentile reported as lat_tail_ms
	// closedRate sizes the closed loop: the seed's capacity, so that the
	// phase takes its share of the run at the seed and less when the
	// program gets faster.
	closedRate float64
}

var serveSpecs = []serveSpec{
	{name: "serve-hot", hot: true, rate: 2000, limit: 5 * time.Millisecond, tail: 95, closedRate: 22000},
	{name: "serve-cold-exact", rate: 32, limit: 100 * time.Millisecond, tail: 95, closedRate: 72},
	{name: "serve-cold-sketch", sketch: true, rate: 100, limit: 20 * time.Millisecond, tail: 95, closedRate: 210},
}

// sizing is everything that scales a run. A smoke run shrinks the
// fixtures so all four workloads fit in a unit test; checks that need a
// full-size run are then skipped.
type sizing struct {
	seconds float64 // measured time: open loop 70 %, closed loop the rest at the seed's capacity
	smoke   bool
}

// rows is the bench store's size.
func (sz sizing) rows() int {
	if sz.smoke {
		return 3000
	}
	return 60000
}

// setups is how many set-ups stand behind setup_s.
func (sz sizing) setups() int {
	if sz.smoke {
		return 1
	}
	return 3
}

const (
	openShare  = 0.7
	warmupSecs = 2.0 // cold workloads: fixed-rate traffic before the measured phase, discarded
	// validity thresholds
	maxLateP50Ms   = 0.25
	hotMinHitRatio = 0.98
	coldMaxHit     = 0.02
	backlogFactor  = 3.0
	// capacityPct is the chunk whose rate a run reports as capacity_rps:
	// the upper quartile. The fastest chunk is one lucky quarter second
	// and the median follows the neighbours; on the reference box the
	// upper quartile repeats within 4 % where the fastest round's rate
	// repeats within 10–28 %.
	capacityPct = 75.0
)

// mounted is one set-up: the store, its server on a real listener, and
// the generator's connections.
type mounted struct {
	store   *store.Store
	reader  *segment.Reader // sketch workloads
	dir     string          // segment directory
	reg     *obs.Registry   // server, store and admission instruments
	segReg  *obs.Registry   // the registry passed in segment.Options.Obs
	addr    string
	clients []*client
	cancel  context.CancelFunc
	served  chan error

	sealMs, writeMs, openMs float64
	segBytes                int64
}

// mount builds the fixture and starts serving it. rec, when non-nil,
// wraps the Querier and the handler.
func mount(spec serveSpec, seed int64, sz sizing, rec *recorder) (*mounted, error) {
	m := &mounted{reg: obs.NewRegistry(), segReg: obs.NewRegistry(), served: make(chan error, 1)}
	t := time.Now()
	m.store = buildStore(seed, sz.rows(), m.reg)
	m.sealMs = msSince(t)
	var q serve.Querier = m.store
	mode := "memory"
	if spec.sketch {
		var err error
		if m.dir, err = scratchDir("seg-"); err != nil {
			return nil, err
		}
		t = time.Now()
		if err := segment.Write(m.dir, m.store); err != nil {
			return nil, err
		}
		m.writeMs = msSince(t)
		t = time.Now()
		if m.reader, err = segment.Open(m.dir, segment.Options{Obs: m.segReg}); err != nil {
			return nil, err
		}
		m.openMs = msSince(t)
		if m.segBytes, err = segmentBytes(m.dir); err != nil {
			return nil, err
		}
		q, mode = m.reader, "segments"
	}
	if rec != nil {
		q = tracedQuerier{q: q, rec: rec}
	}
	// Admission stays on, with limits above anything nproc connections
	// can offer: its bookkeeping is on the path, and it must shed nothing.
	srv := serve.New(q, serve.Options{
		Obs: m.reg, StoreMode: mode,
		Admit: admit.Options{RatePerSec: 1e6, Burst: 1e6},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	m.addr = ln.Addr().String()
	h := srv.Handler()
	if rec != nil {
		h = rec.handler(h)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	go func() { m.served <- serve.ServeListener(ctx, ln, h) }()
	if m.clients, err = dialAll(m.addr, "bench", runtime.NumCPU()); err != nil {
		m.close()
		return nil, err
	}
	return m, nil
}

// close stops the server, waits for it, and removes what mount wrote.
func (m *mounted) close() error {
	closeAll(m.clients)
	m.cancel()
	err := <-m.served
	if m.reader != nil {
		if cerr := m.reader.Close(); err == nil {
			err = cerr
		}
	}
	if m.dir != "" {
		if rerr := os.RemoveAll(m.dir); err == nil {
			err = rerr
		}
	}
	return err
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// serveRun is one run of a serve workload.
type serveRun struct {
	spec   serveSpec
	sz     sizing
	plan   plan
	paths  []string // plan.distinct[i].path()
	oracle *oracle
	etags  []string // hot: the validator learned for each key at warm-up
	m      *mounted
	rec    *recorder
}

// touches are the cold workloads' warm-up requests of a set-up: one per
// endpoint, with parameters the generator never draws, so they occupy
// no key of the run.
var touches = []string{
	"/v1/latency-map?min=31&from=3&to=6",
	"/v1/cdf?platform=speedchecker&points=16&from=3&to=6",
	"/v1/platform-diff?from=9&to=9999",
	"/v1/changepoint?platform=speedchecker&at=6&width=9999",
	"/v1/peering-shares?from=9&to=9999",
}

// warm is the request part of a set-up. Hot: every key fetched once
// (the connections share the keys), judged, its ETag learned. Cold: the
// touches.
func (r *serveRun) warm() error {
	if !r.spec.hot {
		for _, p := range touches {
			status, _, _, err := r.m.clients[0].get(wire{path: p})
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("bench: warm-up GET %s: status %d, %v", p, status, err)
			}
		}
		return nil
	}
	r.etags = make([]string, len(r.plan.distinct))
	errs := make([]error, len(r.m.clients))
	var wg sync.WaitGroup
	for k, c := range r.m.clients {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			for i := k; i < len(r.plan.distinct) && errs[k] == nil; i += len(r.m.clients) {
				errs[k] = r.warmKey(c, i)
			}
		}(k, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// warmKey fetches key i, judges the body and learns its ETag.
func (r *serveRun) warmKey(c *client, i int) error {
	status, hdr, body, err := c.get(wire{path: r.paths[i], ndjson: r.plan.distinct[i].ndjson})
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("bench: warm-up GET %s: status %d, %v", r.paths[i], status, err)
	}
	if err := r.oracle.check(i, body); err != nil {
		return fmt.Errorf("bench: warm-up GET %s: %v", r.paths[i], err)
	}
	if r.etags[i] = hdr.Get("ETag"); r.etags[i] == "" {
		return fmt.Errorf("bench: warm-up GET %s: no ETag", r.paths[i])
	}
	return nil
}

// exchange returns the generator callback for the stream slice that
// starts at stream index base; request ids are stream indexes.
func (r *serveRun) exchange(base int) exchange {
	return func(c *client, i int) verdict {
		s := r.plan.stream[base+i]
		req := r.plan.distinct[s.req]
		w := wire{path: r.paths[s.req], ndjson: req.ndjson, reqID: base + i}
		if s.conditional {
			w.etag = r.etags[s.req]
		}
		status, hdr, body, err := c.get(w)
		if err != nil {
			return verdict{failed: err.Error()}
		}
		return r.judge(s, status, hdr, body)
	}
}

// judge compares one response with its reference. Only the byte
// comparison runs here, on the measured path; a body that may be a
// sketch answer is kept and judged after the phase.
func (r *serveRun) judge(s send, status int, hdr http.Header, body []byte) verdict {
	v := verdict{status: status, cache: hdr.Get("X-Cache")}
	ref := r.oracle.refs[s.req]
	switch status {
	case http.StatusOK:
		switch {
		case r.etags != nil && hdr.Get("ETag") != r.etags[s.req]:
			v.failed = "ETag differs from the one learned at warm-up"
		case string(body) == string(ref.body):
		case ref.near != nil:
			v.pending = append([]byte(nil), body...)
		default:
			v.failed = ref.mismatch(body).Error()
		}
	case http.StatusNotModified:
		if !s.conditional || hdr.Get("ETag") != r.etags[s.req] {
			v.failed = "304 without a matching validator"
		}
	default:
		v.failed = fmt.Sprintf("status %d: %.80s", status, body)
	}
	return v
}

// settle judges the bodies the measured path set aside.
func (r *serveRun) settle(base int, out []outcome) {
	for i := range out {
		if out[i].pending == nil {
			continue
		}
		ref := r.oracle.refs[r.plan.stream[base+i].req]
		if err := nearExact(ref.req, *ref.near, out[i].pending); err != nil {
			out[i].failed = err.Error()
		}
		out[i].pending = nil
	}
}

// phaseCounts are the generator-side tallies of a phase.
type phaseCounts struct {
	n, failed, hits, misses, notModified, shed int
	firstFailure                               string
}

func tally(out []outcome) phaseCounts {
	var c phaseCounts
	for _, o := range out {
		c.n++
		if o.failed != "" {
			if c.failed == 0 {
				c.firstFailure = o.failed
			}
			c.failed++
		}
		switch o.cache {
		case "hit":
			c.hits++
		case "miss":
			c.misses++
		}
		switch o.status {
		case http.StatusNotModified:
			c.notModified++
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			c.shed++
		}
	}
	return c
}

func (c phaseCounts) add(d phaseCounts) phaseCounts {
	if c.firstFailure == "" {
		c.firstFailure = d.firstFailure
	}
	c.n += d.n
	c.failed += d.failed
	c.hits += d.hits
	c.misses += d.misses
	c.notModified += d.notModified
	c.shed += d.shed
	return c
}

func latenciesMs(out []outcome) []float64 {
	xs := make([]float64, len(out))
	for i, o := range out {
		xs[i] = float64(o.latency()) / 1e6
	}
	return xs
}

// statsz fetches and parses /v1/statsz.
func (r *serveRun) statsz() (serve.Statsz, error) {
	var s serve.Statsz
	status, _, body, err := r.m.clients[0].get(wire{path: "/v1/statsz"})
	if err != nil || status != http.StatusOK {
		return s, fmt.Errorf("bench: GET /v1/statsz: status %d, %v", status, err)
	}
	return s, json.Unmarshal(body, &s)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// sizes are the request counts of a run's phases. The measured time is
// cut into rounds — open loop, then closed loop, again — so that both
// loops sample the whole run and not one stretch of it; open and closed
// are per round.
type sizes struct {
	warm, open, closed int
	rounds             int
	window             int // open-loop requests per latency reading
	chunk              int // closed-loop responses per capacity reading
}

// hotChunk is serve-hot's capacity chunk, about a quarter of a second at
// the seed's capacity. A cold chunk is one block of the request mix.
const hotChunk = 5000

const maxRounds = 4

// sizesFor derives the phase sizes from the frozen spec and the run's
// seconds. Cold phases are whole blocks of the request mix, so every
// run — and every window and chunk of it — does the same work whatever
// the seed shuffles.
func sizesFor(spec serveSpec, sz sizing, traced bool) sizes {
	block := 1
	if !spec.hot && !sz.smoke {
		block = coldBlock
	}
	whole := func(x float64) int { return max(int(x)/block, 1) * block }
	openSecs := sz.seconds * openShare
	if traced {
		openSecs /= 2 // two open loops, recording off then on, in the time of one
	}
	n := sizes{
		// A window is the fewest requests that leave minBeyond of them
		// beyond the tail percentile.
		window: whole(math.Ceil(minBeyond * 100 / (100 - spec.tail))),
	}
	open := spec.rate * openSecs
	// Every round's open loop holds at least one window. The traced run
	// is one round: off, on, closed.
	n.rounds = min(max(int(open)/n.window, 1), maxRounds)
	if traced {
		n.rounds = 1
	}
	n.open = whole(open / float64(n.rounds))
	n.closed = whole(spec.closedRate * sz.seconds * (1 - openShare) / float64(n.rounds))
	n.chunk = coldBlock
	if spec.hot {
		n.chunk = hotChunk
	}
	n.chunk = min(n.chunk, n.closed)
	if !spec.hot {
		n.warm = whole(spec.rate * min(warmupSecs, sz.seconds/2))
	}
	return n
}

// perWindow slides a window of per consecutive values over xs, a tenth
// of a window at a time, and returns stat of each position (of all of
// xs when it is shorter than one window). A run reports the best
// window's reading. The reference box's interference is additive and
// comes in bursts — a fixed CPU loop's fastest pass repeats within 2 %
// from run to run while its median wanders by 15 % — so the quietest
// window shows the program and the others show the neighbours; sliding
// lets a window sit between two bursts wherever they fall.
func perWindow(xs []float64, per int, stat func([]float64) float64) []float64 {
	if len(xs) <= per {
		return []float64{stat(xs)}
	}
	var out []float64
	for start := 0; start+per <= len(xs); start += max(per/10, 1) {
		out = append(out, stat(xs[start:start+per]))
	}
	return out
}

// chunkRates reads a closed loop as perWindow reads an open one: the
// correct responses in the order they completed, a chunk of per of them
// slid a tenth at a time, each position's responses per second.
func chunkRates(closed []outcome, elapsed time.Duration, per int) []float64 {
	done := []float64{0}
	for _, o := range closed {
		if o.failed == "" {
			done = append(done, o.done.Seconds())
		}
	}
	slices.Sort(done)
	if len(done)-1 <= per {
		return []float64{float64(len(done)-1) / elapsed.Seconds()}
	}
	var out []float64
	for start := 0; start+per < len(done); start += max(per/10, 1) {
		out = append(out, float64(per)/(done[start+per]-done[start]))
	}
	return out
}

// runServe runs one serve workload: oracle, set-ups, warm-up, open
// loop, closed loop, validity checks. With traced set the wrappers are
// installed, the open loop runs once with recording off and once with
// it on, and the per-layer metrics are returned instead of the
// end-to-end ones.
func runServe(spec serveSpec, seed int64, sz sizing, traced bool) (res result, err error) {
	res = result{workload: spec.name, metrics: map[string]float64{}}
	// One P more than cores: when the server's handlers hold a P each
	// (two latency-map kernels are enough on the reference box), the
	// generator's scheduler still finds one the moment it wakes, and the
	// OS time-slices the threads. Without it the scheduler waits out the
	// runtime's 10 ms preemption quantum and runs late.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 1))
	n := sizesFor(spec, sz, traced)
	total := n.warm + n.rounds*(n.open+n.closed)
	if traced {
		total += n.open
	}

	r := &serveRun{spec: spec, sz: sz}
	if spec.hot {
		r.plan = hotPlan(seed, total)
	} else if r.plan, err = coldPlan(seed, total, spec.sketch); err != nil {
		return res, err
	}
	r.paths = make([]string, len(r.plan.distinct))
	for i, req := range r.plan.distinct {
		r.paths[i] = req.path()
	}
	oracleStore := buildStore(seed, sz.rows(), nil)
	if r.oracle, err = newOracle(oracleStore, r.plan, spec.sketch, runtime.NumCPU()); err != nil {
		return res, err
	}
	if traced {
		r.rec = newRecorder()
	}

	// Set-up, repeated: fixture build, mount, listener, connections and
	// the warm-up requests. The last one is kept for the run.
	var setups []float64
	for i := 0; i < sz.setups(); i++ {
		if r.m != nil {
			if err := r.m.close(); err != nil {
				return res, err
			}
		}
		t := time.Now()
		if r.m, err = mount(spec, seed, sz, r.rec); err != nil {
			return res, err
		}
		if err := r.warm(); err != nil {
			r.m.close()
			return res, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer func() {
		if cerr := r.m.close(); err == nil {
			err = cerr
		}
	}()

	period := time.Duration(float64(time.Second) / spec.rate)
	base := 0
	if n.warm > 0 {
		warm := openLoop(r.m.clients, n.warm, period, r.exchange(base))
		r.settle(base, warm)
		if c := tally(warm); c.failed > 0 {
			return res, fmt.Errorf("bench: %d of %d warm-up requests failed: %s", c.failed, c.n, c.firstFailure)
		}
		base += n.warm
	}
	segBefore := r.segmentCounters()
	var untraced []outcome
	if traced {
		untraced = openLoop(r.m.clients, n.open, period, r.exchange(base))
		r.settle(base, untraced)
		base += n.open
	}
	var opens [][]outcome
	var rounds, capacity []float64 // closed loop: responses per second of each round, of each chunk
	counts := tally(untraced)
	var allocBytes uint64
	for round := 0; round < n.rounds; round++ {
		if traced {
			// Spans cover the open loop only: the closed loop is there
			// for one number, and a saturated server would flood the
			// recorder.
			r.rec.on.Store(true)
		}
		runtime.GC()
		allocBefore := totalAlloc()
		openStart := time.Now()
		open := openLoop(r.m.clients, n.open, period, r.exchange(base))
		allocBytes += totalAlloc() - allocBefore
		r.settle(base, open)
		if traced {
			r.rec.on.Store(false)
			for i, o := range open {
				r.rec.request(base+i, openStart, o)
			}
		}
		base += n.open
		closed, elapsed := closedLoop(r.m.clients, n.closed, r.exchange(base))
		r.settle(base, closed)
		base += n.closed
		opens = append(opens, open)
		c := tally(closed)
		rounds = append(rounds, float64(c.n-c.failed)/elapsed.Seconds())
		capacity = append(capacity, chunkRates(closed, elapsed, n.chunk)...)
		counts = counts.add(tally(open)).add(c)
	}
	segAfter := r.segmentCounters()
	stats, err := r.statsz()
	if err != nil {
		return res, err
	}

	// Readings are taken window by window over the rounds' open loops
	// laid end to end (a window may straddle two rounds; it is a count of
	// consecutive requests, not a stretch of time).
	tailOf := func(xs []float64) float64 { return percentile(xs, spec.tail) }
	okShare := func(xs []float64) float64 {
		ok := 0
		for _, x := range xs {
			if x <= float64(spec.limit)/1e6 {
				ok++
			}
		}
		return ratio(ok, len(xs))
	}
	var lat, forLimit, late []float64
	for _, open := range opens {
		for _, o := range open {
			ms := float64(o.latency()) / 1e6
			lat = append(lat, ms)
			// forLimit is lat with every failed request at +Inf: a request
			// that fails or is refused misses any latency limit.
			if o.failed != "" {
				ms = math.Inf(1)
			}
			forLimit = append(forLimit, ms)
			late = append(late, float64(o.late)/1e6)
		}
	}
	p50s := perWindow(lat, n.window/2, median)
	tails := perWindow(lat, n.window, tailOf)
	oks := perWindow(forLimit, n.window, okShare)
	res.attempted, res.failed = counts.n, counts.failed
	res.firstFailure = counts.firstFailure
	hitRatio := ratio(counts.hits, counts.hits+counts.misses)
	cut := 0
	for _, s := range r.plan.stream[:base] {
		if r.plan.distinct[s.req].cut {
			cut++
		}
	}
	cutRatio := ratio(cut, base)

	// Validity: a run that did not exercise what the workload is for is
	// refused, not reported.
	res.invalid, res.warnings = r.validity(n, opens, late, slices.Max(rounds), hitRatio, cutRatio, counts, segAfter)

	if !traced {
		res.metrics["setup_s"] = median(setups)
		res.metrics["lat_p50_ms"] = slices.Min(p50s)
		res.metrics["lat_tail_ms"] = slices.Min(tails)
		res.metrics["slo_ok_ratio"] = slices.Max(oks)
		res.metrics["capacity_rps"] = percentile(capacity, capacityPct)
		res.metrics["alloc_mb"] = float64(allocBytes) / (1 << 20)
		res.notes = append(res.notes,
			fmt.Sprintf("%d rounds of open loop (%d requests at %g/s over %d connections) then closed loop (%d requests, %d clients)",
				n.rounds, n.open, spec.rate, len(r.m.clients), n.closed, len(r.m.clients)),
			fmt.Sprintf("open loops read in sliding windows of %d (%d for the median); lat_tail_ms is p%g, %d samples beyond it in a window; lat_* and slo_ok_ratio (limit %v) are the best of %d windows",
				n.window, n.window/2, spec.tail, beyond(n.window, spec.tail), spec.limit, len(tails)),
			fmt.Sprintf("all open loops end to end: p50 %.3f ms, p%g %.3f ms, %.4f within the limit; scheduler late p50 %.3f ms, p99 %.3f ms (gen_late_p99_ms)",
				median(lat), spec.tail, tailOf(lat), okShare(forLimit), median(late), percentile(late, 99)),
			fmt.Sprintf("capacity_rps is the upper quartile of %d chunks of %d closed-loop responses (rounds: median %.1f/s, fastest %.1f/s); cache hit ratio %.3f",
				len(capacity), n.chunk, median(rounds), slices.Max(rounds), hitRatio))
		return res, nil
	}

	pm := res.metrics
	pm["load.late_p99_ms"] = percentile(late, 99)
	pm["load.sent"] = float64(counts.n)
	pm["load.conns"] = float64(len(r.m.clients))
	pm["fail_ratio"] = ratio(counts.failed, counts.n)
	pm["admit.shed_ratio"] = ratio(counts.shed, counts.n)
	pm["serve.cache_hit_ratio"] = hitRatio
	pm["serve.not_modified_ratio"] = ratio(counts.notModified, counts.n)
	var coalesced uint64
	for _, fig := range figureNames {
		coalesced += stats.Endpoints[fig].Coalesced
	}
	pm["serve.coalesced_ratio"] = float64(coalesced) / float64(max(counts.n, 1))
	pm["serve.cache_evictions"] = float64(stats.Cache.Evictions)
	if spec.sketch {
		pm["segment.exact_fallback_ratio"] = cutRatio
	}
	pm["store.seal_ms"] = r.m.sealMs
	pm["segment.write_ms"] = r.m.writeMs
	pm["segment.open_ms"] = r.m.openMs
	pm["segment.bytes"] = float64(r.m.segBytes)
	pm["seg_bytes_per_row"] = float64(r.m.segBytes) / float64(r.m.store.Summary().Rows)
	queries := float64(max(counts.misses, 1))
	d := func(name string) float64 { return float64(segAfter[name] - segBefore[name]) }
	pm["segment.blocks_read_per_query"] = d("segment_blocks_read_total") / queries
	pm["segment.pruned_ratio"] = d("segment_blocks_pruned_total") / max(d("segment_blocks_pruned_total")+d("segment_blocks_read_total"), 1)
	pm["segment.sketch_merges_per_query"] = d("segment_sketch_merges_total") / queries
	pm["segment.block_errors"] = d("segment_block_errors_total")
	// The traced run is one round; its open loop starts where the
	// untraced one ended.
	r.spanMetrics(pm, n.warm+n.open, opens[0])
	pm["bench.trace_overhead_ratio"] = slices.Min(p50s) / slices.Min(perWindow(latenciesMs(untraced), n.window/2, median))
	r.probe(pm, oracleStore)
	res.notes = append(res.notes, fmt.Sprintf("%d spans in %s/trace-%s.json", len(r.rec.spans), outDir, spec.name))
	return res, r.rec.write(spec.name)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

var segmentCounterNames = []string{
	"segment_blocks_read_total", "segment_blocks_pruned_total",
	"segment_sketch_merges_total", "segment_block_errors_total",
}

// segmentCounters reads the reader's counters off the registry the
// benchmark passed in segment.Options.Obs.
func (r *serveRun) segmentCounters() map[string]uint64 {
	out := map[string]uint64{}
	for _, name := range segmentCounterNames {
		out[name] = r.m.segReg.SumCounters(name)
	}
	return out
}

// validity returns the reasons this run's numbers must not be used
// (bad), and what the box did to the run that a reader of the numbers
// should know (warn). Only what the program and the request list decide
// is in bad: a neighbour's burst on a shared host must not fail a run,
// and the best-window readings already leave its windows out.
func (r *serveRun) validity(n sizes, opens [][]outcome, late []float64, capacity, hitRatio, cutRatio float64, counts phaseCounts, seg map[string]uint64) (bad, warn []string) {
	// fullOnly marks a check that only a full-size run can pass: a smoke
	// run is too short for it and shares its cores with the test runner.
	fail := func(fullOnly bool, format string, args ...any) {
		if fullOnly && r.sz.smoke {
			return
		}
		bad = append(bad, fmt.Sprintf(format, args...))
	}
	// The generator shares two cores and one garbage collector with the
	// server, so its slowest percent of releases follows the collector
	// and the hypervisor (gen_late_p99_ms, reported); it should be on
	// time as a rule.
	if p50 := median(late); p50 > maxLateP50Ms && !r.sz.smoke {
		warn = append(warn, fmt.Sprintf("generator ran late: median lateness %.3f ms > %.2f", p50, maxLateP50Ms))
	}
	// An open loop above what the program sustains measures its queue.
	// The frozen rates are 10–40 % of the seed's capacity, so only the
	// program can trip this.
	if capacity < r.spec.rate {
		fail(true, "open loop at %g/s is above the closed loop's %.1f/s", r.spec.rate, capacity)
	}
	if counts.shed > 0 {
		fail(false, "admission shed %d requests; it must shed none", counts.shed)
	}
	if r.spec.hot && hitRatio < hotMinHitRatio {
		fail(false, "cache hit ratio %.3f < %.2f on the hot workload", hitRatio, hotMinHitRatio)
	}
	if !r.spec.hot {
		if hitRatio > coldMaxHit {
			fail(false, "cache hit ratio %.3f > %.2f on a cold workload", hitRatio, coldMaxHit)
		}
		seen := map[string]bool{}
		for _, req := range r.plan.distinct {
			k := req.key()
			if seen[k] {
				fail(false, "key %s repeats inside a cold run", k)
				break
			}
			seen[k] = true
		}
	}
	if r.spec.sketch {
		if cutRatio < 0.09 || cutRatio > 0.11 {
			fail(true, "segment.exact_fallback_ratio %.3f outside 0.10 ± 0.01", cutRatio)
		}
		if seg["segment_block_errors_total"] > 0 {
			fail(false, "segment reader counted %d block errors", seg["segment_block_errors_total"])
		}
	}
	for round, open := range opens {
		if len(open) < n.window {
			fail(true, "round %d: open loop of %d requests is shorter than one window of %d", round, len(open), n.window)
		}
		// Backlog: in an open loop that keeps up, the end looks like the
		// start. Medians of thirds, and a factor of three; a stall of the
		// box that covers a third still reads as a queue that grows, which
		// is why this warns and the capacity check above decides.
		third := len(open) / 3
		if third < minBeyond || r.sz.smoke {
			continue
		}
		ms := latenciesMs(open)
		if first, last := median(ms[:third]), median(ms[len(ms)-third:]); last > backlogFactor*first {
			warn = append(warn, fmt.Sprintf("round %d: backlog grew: median latency %.2f ms in the last third against %.2f ms in the first", round, last, first))
		}
	}
	return bad, warn
}

// spanMetrics derives the per-layer timings from the recorded spans of
// the traced open loop.
func (r *serveRun) spanMetrics(pm map[string]float64, base int, open []outcome) {
	handlers, queries := r.rec.byName(spanHandler), r.rec.byName(spanQuery)
	var handlerMs, hitMs, selfMs, queryMs, transportMs []float64
	for i, o := range open {
		h, ok := handlers[base+i]
		if !ok {
			continue
		}
		handlerMs = append(handlerMs, h.ms())
		transportMs = append(transportMs, float64(o.service())/1e6-h.ms())
		if h.Cache == "hit" {
			hitMs = append(hitMs, h.ms())
		}
		if q, ok := queries[base+i]; ok {
			queryMs = append(queryMs, q.ms())
			selfMs = append(selfMs, h.ms()-q.ms())
		}
	}
	pm["serve.handler_ms_p50"] = percentile(handlerMs, 50)
	pm["serve.handler_ms_p99"] = percentile(handlerMs, 99)
	pm["serve.hit_ms_p50"] = percentile(hitMs, 50)
	pm["serve.self_ms_p50"] = percentile(selfMs, 50)
	pm["http.transport_ms_p50"] = percentile(transportMs, 50)
	layer := "store"
	if r.spec.sketch {
		layer = "segment"
	}
	pm[layer+".query_ms_p50"] = percentile(queryMs, 50)
	pm[layer+".query_ms_p99"] = percentile(queryMs, 99)
}

// probe replays a sample of the run's distinct queries straight into
// the layers below serve — gather, figure kernel, encode, sketch point
// query, admission — one at a time, with nothing else running.
func (r *serveRun) probe(pm map[string]float64, st *store.Store) {
	const perFigure = 3
	taken := map[class]bool{}
	perFig := map[figure]int{}
	kernelMs := map[figure][]float64{}
	var gatherMs, rows, encodeMs, bodyBytes []float64
	for _, req := range r.plan.distinct {
		c := classOf(req)
		if taken[c] || perFig[req.fig] >= perFigure {
			continue
		}
		taken[c] = true
		perFig[req.fig]++
		e, t := computeClass(st, c)
		kernelMs[req.fig] = append(kernelMs[req.fig], float64(t.kernel)/1e6)
		if req.fig != figPeering {
			gatherMs = append(gatherMs, float64(t.gather)/1e6)
			rows = append(rows, float64(t.rows))
		}
		start := time.Now()
		body, err := encodeExact(req, shaped(req, e))
		if err != nil {
			continue
		}
		encodeMs = append(encodeMs, msSince(start))
		bodyBytes = append(bodyBytes, float64(len(body)))
	}
	pm["store.gather_ms_p50"] = median(gatherMs)
	pm["store.rows_per_query"] = mean(rows)
	pm["analysis.latency_map_ms"] = median(kernelMs[figLatencyMap])
	pm["analysis.cdf_ms"] = median(kernelMs[figCDF])
	pm["analysis.platform_diff_ms"] = median(kernelMs[figPlatformDiff])
	pm["analysis.changepoint_ms"] = median(kernelMs[figChangepoint])
	pm["serve.encode_ms_p50"] = median(encodeMs)
	pm["serve.body_bytes_p50"] = median(bodyBytes)

	if r.m.reader != nil {
		// The first country of the table is the largest group (zipf rank 1).
		country := largestCountry()
		var us []float64
		for i := 0; i < 200; i++ {
			start := time.Now()
			r.m.reader.GroupQuantiles(store.DimCountry, "speedchecker", country, store.Window{}, 0.5, 0.95)
			us = append(us, float64(time.Since(start))/1e3)
		}
		pm["sketch.group_quantile_us_p50"] = median(us)
	}

	const calls = 200000
	clock := time.Now()
	ctl := admit.New(admit.Options{RatePerSec: 1e9, Burst: 1e9, Clock: func() time.Duration { return time.Since(clock) }})
	start := time.Now()
	for i := 0; i < calls; i++ {
		ctl.Allow("bench-0")
	}
	pm["admit.allow_ns"] = float64(time.Since(start)) / calls
	start = time.Now()
	for i := 0; i < calls; i++ {
		if release, ok := ctl.Acquire(); ok {
			release()
		}
	}
	pm["admit.acquire_ns"] = float64(time.Since(start)) / calls
}
