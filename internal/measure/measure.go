// Package measure implements the measurement campaign of §3.3: it
// cycles through every country with enough vantage points, selects the
// probes that happen to be connected (Speedchecker Android probes are
// transient), targets every cloud region on the probe's continent —
// plus the neighbouring continents' regions for Africa and South
// America (§4.3) — and records TCP pings, ICMP pings and ICMP
// traceroutes through the simulator.
//
// The engine honours the paper's operational constraints: a self-imposed
// rate limit of one measurement request per minute and an API budget
// per cycle, both tracked against a virtual clock so campaigns are
// reproducible and fast. One full pass over all countries takes about
// two virtual weeks, matching the paper's cycle time.
//
// The engine is also resilient the way a six-month campaign has to be:
// lost or timed-out measurements are retried with exponential backoff
// and deterministic jitter, a per-probe circuit breaker quarantines
// probes that fail repeatedly, and persistent sink failures degrade to
// an in-memory spill instead of aborting. Failures come from an
// optional faults.Injector, so chaos campaigns stay reproducible.
package measure

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/cloud"
	"repro/internal/dataset"
	"repro/internal/detrand"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/probes"
	"repro/internal/sample"
	"repro/internal/stats"
)

// Flag is a tri-state boolean distinguishing "unset" from an explicit
// false, so zero-value Configs pick up documented defaults while an
// explicit FlagOff still means off.
type Flag uint8

// Flag states.
const (
	FlagUnset Flag = iota
	FlagOn
	FlagOff
)

// Enabled reports whether the flag resolved to on.
func (f Flag) Enabled() bool { return f == FlagOn }

// Config parameterizes a campaign.
type Config struct {
	// Seed drives probe sampling (independent of the world seed).
	Seed int64
	// Cycles is the number of two-week country sweeps; the paper's six
	// months correspond to roughly 12 (default 2).
	Cycles int
	// ProbesPerCountry caps how many connected probes a country
	// contributes per cycle; probes beyond the cap are dropped after a
	// deterministic shuffle. Zero (the default) means no cap, so
	// measurement volume follows probe density as it does on the real
	// platform.
	ProbesPerCountry int
	// TargetsPerProbe is how many regions each selected probe measures
	// per cycle: always the probe's nearest regions plus a rotating
	// window over the rest of the pool, so every probe tracks its
	// closest datacenter every cycle while full coverage accumulates
	// across cycles (default 10).
	TargetsPerProbe int
	// MinProbesPerCountry gates countries into the experiment; the
	// paper required at least 100 probes (default 100). Scaled-down
	// fleets should scale this down too.
	MinProbesPerCountry int
	// Countries, when non-empty, restricts the sweep to these country
	// codes — the distributed campaign plane's shard unit. Probe and
	// target selection, retry jitter and record values are all pure
	// functions of (probe, country, cycle), so a fault-free,
	// quota-free campaign over a country subset emits exactly the
	// records the full sweep would emit for those countries, in the
	// same per-probe order (internal/cluster relies on this for its
	// replay-on-reassign determinism).
	Countries []string
	// FromCycle and ToCycle restrict the sweep to the cycle window
	// [FromCycle, ToCycle) on the campaign time axis — the longitudinal
	// analogue of Countries, and the other half of the cluster plane's
	// shard unit. Zero values impose no bound (ToCycle <= 0 runs through
	// Cycles). Because everything a record carries is a pure function of
	// (probe, country, cycle), a windowed run emits exactly the records
	// the full campaign would emit for those cycles.
	FromCycle int
	ToCycle   int
	// DiurnalAmplitude modulates probe availability over the virtual
	// day (0 disables, the default): a country's discovery probability
	// is scaled by 1 − A·nightShare, where nightShare follows a cosine
	// over the country's sweep-phase time of day. The factor is a pure
	// function of (country, cycle), so modulated campaigns stay
	// replayable.
	DiurnalAmplitude float64
	// CycleQuota bounds the measurement requests dispatched per cycle;
	// zero means unlimited. When a cycle exhausts its quota the rest of
	// that cycle's sweep is skipped (booked in
	// Stats.CycleQuotaExhausted) and the budget refreshes at the next
	// cycle boundary — the §3.3 budget, re-anchored to the campaign
	// time axis.
	CycleQuota int
	// RegionAvailable, when set, filters the target pool per cycle:
	// targetsFor only considers regions for which it returns true. The
	// scenario plane uses this for provider-region launches mid-campaign
	// (netsim.Scenario.RegionAvailable); it must be a pure function of
	// (regionID, cycle) to keep campaigns replayable.
	RegionAvailable func(regionID string, cycle int) bool
	// RequestsPerMinute is the self-imposed rate limit (default 1).
	RequestsPerMinute float64
	// Workers is the number of concurrent measurement workers
	// (default: GOMAXPROCS).
	Workers int
	// BothPingProtocols issues ICMP pings alongside TCP. The unset
	// (zero) value means on — the paper ran both (§3.3); use FlagOff to
	// collect TCP only.
	BothPingProtocols Flag
	// Traceroutes enables ICMP traceroute collection.
	Traceroutes bool
	// NeighborContinentTargets adds EU+NA regions for African probes
	// and NA regions for South American probes (§4.3).
	NeighborContinentTargets bool
	// Sinks, when non-empty, receive the records instead of the
	// returned store — the full-scale path: a 115K-probe campaign
	// writes gigabytes that should not live in memory. One sink is
	// called directly from a single goroutine; with more than one the
	// campaign fans records out through a bounded sample.Bus of
	// sample.DefaultBusBuffer records, so one run can feed the export
	// files, an in-memory store and an incremental columnar store.Feed
	// at once under backpressure (a full buffer blocks the collector).
	// Each sink is closed before Run returns. If the streaming path
	// fails persistently the campaign does not abort: remaining records
	// spill into the returned store and the sink error is reported
	// alongside the complete dataset.
	Sinks []dataset.Sink

	// Obs registers the campaign's instruments (pings, retries, breaker
	// trips, cycle-quota exhaustion, RTT histogram) and, when the
	// fan-out bus engages, the bus's queue telemetry. Nil runs
	// uninstrumented; the engine's behaviour is identical either way —
	// instruments observe the campaign, they never steer it. Span-style
	// tracing is carried separately, via the ctx handed to Run.
	Obs *obs.Registry

	// Faults injects deterministic failures (nil = fault-free run).
	Faults faults.Injector
}

// The resilience policy every campaign runs under.
const (
	// maxRetries bounds the retries after a lost or timed-out ping
	// attempt.
	maxRetries = 2
	// taskDeadlineMs is the per-measurement deadline: an attempt whose
	// injected delay exceeds it counts as timed out.
	taskDeadlineMs = 3000
	// backoffBaseMs and backoffMaxMs shape the exponential retry
	// backoff charged to the virtual clock.
	backoffBaseMs = 100
	backoffMaxMs  = 60000
	// breakerThreshold quarantines a probe after this many consecutive
	// lost measurements.
	breakerThreshold = 4
	// breakerCooldown is how long a quarantined probe stays benched in
	// virtual time before re-admission.
	breakerCooldown = 24 * time.Hour
)

// DefaultConfig returns the paper-shaped configuration.
func DefaultConfig() Config {
	return Config{
		Cycles:                   2,
		TargetsPerProbe:          10,
		MinProbesPerCountry:      100,
		RequestsPerMinute:        1,
		Workers:                  runtime.GOMAXPROCS(0),
		BothPingProtocols:        FlagOn,
		Traceroutes:              true,
		NeighborContinentTargets: true,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Cycles == 0 {
		c.Cycles = d.Cycles
	}
	if c.TargetsPerProbe == 0 {
		c.TargetsPerProbe = d.TargetsPerProbe
	}
	if c.MinProbesPerCountry == 0 {
		c.MinProbesPerCountry = d.MinProbesPerCountry
	}
	if c.RequestsPerMinute == 0 {
		c.RequestsPerMinute = d.RequestsPerMinute
	}
	if c.Workers == 0 {
		c.Workers = d.Workers
	}
	if c.BothPingProtocols == FlagUnset {
		c.BothPingProtocols = d.BothPingProtocols
	}
	return c
}

// Validate rejects nonsensical configurations before they can corrupt a
// campaign: negative sizes or a negative or non-finite rate limit. Zero
// values are fine — withDefaults fills them in.
func (c Config) Validate() error {
	switch {
	case c.Cycles < 0:
		return fmt.Errorf("measure: Cycles %d is negative", c.Cycles)
	case c.ProbesPerCountry < 0:
		return fmt.Errorf("measure: ProbesPerCountry %d is negative", c.ProbesPerCountry)
	case c.TargetsPerProbe < 0:
		return fmt.Errorf("measure: TargetsPerProbe %d is negative", c.TargetsPerProbe)
	case c.MinProbesPerCountry < 0:
		return fmt.Errorf("measure: MinProbesPerCountry %d is negative", c.MinProbesPerCountry)
	case c.RequestsPerMinute < 0 || math.IsNaN(c.RequestsPerMinute) || math.IsInf(c.RequestsPerMinute, 0):
		return fmt.Errorf("measure: RequestsPerMinute %v is not a valid rate", c.RequestsPerMinute)
	case c.Workers < 0:
		return fmt.Errorf("measure: Workers %d is negative", c.Workers)
	case c.BothPingProtocols > FlagOff:
		return fmt.Errorf("measure: BothPingProtocols %d is not a valid Flag", c.BothPingProtocols)
	case c.FromCycle < 0:
		return fmt.Errorf("measure: FromCycle %d is negative", c.FromCycle)
	case c.ToCycle < 0:
		return fmt.Errorf("measure: ToCycle %d is negative", c.ToCycle)
	case c.FromCycle > 0 && c.ToCycle > 0 && c.FromCycle >= c.ToCycle:
		return fmt.Errorf("measure: cycle window [%d, %d) is empty", c.FromCycle, c.ToCycle)
	case c.DiurnalAmplitude < 0 || c.DiurnalAmplitude > 1 || math.IsNaN(c.DiurnalAmplitude):
		return fmt.Errorf("measure: DiurnalAmplitude %v is outside [0, 1]", c.DiurnalAmplitude)
	case c.CycleQuota < 0:
		return fmt.Errorf("measure: CycleQuota %d is negative", c.CycleQuota)
	}
	return nil
}

// Stats summarizes a finished campaign.
type Stats struct {
	Requests        int
	Pings           int
	Traceroutes     int
	CountriesCycled int
	// VirtualDuration is how long the campaign would have taken on the
	// real platform under the rate limit.
	VirtualDuration time.Duration
	// SamplesPerCountry counts ping samples per VP country.
	SamplesPerCountry map[string]int
	// Discovery records the 4-hourly connectivity polls (§3.3): how
	// many probes answered each cycle's discovery — the paper's "29K+
	// probes available at any given time" statistic.
	Discovery []DiscoverySnapshot
	// EverConnected counts probes that answered at least one discovery;
	// PersistentProbes counts those that answered every cycle. The gap
	// is the platform's transience (§3.3: "the majority of Android
	// probes were transient across days").
	EverConnected    int
	PersistentProbes int

	// Loss accounting. Attempts counts every ping attempt including
	// retries; each attempt either delivers a record, is retried, or is
	// finally lost, so Attempts = Pings + Retries + Lost holds on any
	// campaign that ran to completion.
	Attempts int
	Retries  int
	// TimedOut counts attempts that exceeded the per-task deadline (a
	// subset of the failures behind Retries and Lost).
	TimedOut int
	// Lost counts ping measurements abandoned after exhausting retries.
	Lost int
	// TracesLost counts traceroutes that never came back.
	TracesLost int
	// ProbeDropouts counts probes that answered discovery but vanished
	// before measuring — the §3.3 mid-campaign churn.
	ProbeDropouts int
	// Quarantined counts circuit-breaker trips; QuarantineSkipped
	// counts probe selections skipped while quarantined.
	Quarantined       int
	QuarantineSkipped int
	// CycleQuotaExhausted counts cycles whose per-cycle measurement
	// budget (Config.CycleQuota) ran out before the sweep finished.
	CycleQuotaExhausted int
	// SinkRetries counts transient sink errors that were retried;
	// Spilled counts records diverted to the in-memory store after the
	// sink degraded permanently.
	SinkRetries  int
	Spilled      int
	SinkDegraded bool

	// Fan-out bus telemetry (zero unless the campaign streamed through
	// a multi-sink sample.Bus). BusHighWater is the deepest buffer
	// occupancy seen; BusStalls counts sends that blocked on a full
	// buffer; BusDropped counts deliveries skipped because a sink had
	// already degraded (the records behind Spilled).
	BusHighWater int
	BusStalls    int
	BusDropped   int
}

// LossRate returns the fraction of ping measurements finally lost.
func (s Stats) LossRate() float64 {
	done := s.Pings + s.Lost
	if done == 0 {
		return 0
	}
	return float64(s.Lost) / float64(done)
}

// DiscoverySnapshot is one cycle's probe-connectivity poll.
type DiscoverySnapshot struct {
	Cycle     int
	Connected int
}

// ConnectedShare returns the mean fraction of the fleet connected per
// cycle, given the fleet size.
func (s Stats) ConnectedShare(fleetSize int) float64 {
	if fleetSize == 0 || len(s.Discovery) == 0 {
		return 0
	}
	total := 0
	for _, d := range s.Discovery {
		total += d.Connected
	}
	return float64(total) / float64(len(s.Discovery)) / float64(fleetSize)
}

// ConfidentCountries returns the countries whose sample count meets the
// n = z²p(1−p)/ε² bound at 95% confidence and 2% margin — the paper's
// ">2400 measurements per country" requirement.
func (s Stats) ConfidentCountries() []string {
	need := stats.RequiredSampleSize(1.96, 0.5, 0.02)
	var out []string
	for c, n := range s.SamplesPerCountry {
		if n >= need {
			out = append(out, c)
		}
	}
	return out
}

// task is one <probe, region> measurement unit, with the control-plane
// outcome (which measurements survived fault resolution) already
// decided by the dispatcher.
type task struct {
	probe  *probes.Probe
	region *cloud.Region
	cycle  int
	doTCP  bool
	doICMP bool
	// traces holds the traceroute cycle keys to run (two per task — the
	// published dataset holds roughly twice as many traceroutes as
	// pings — minus any the injector lost).
	traces []int
}

// Campaign runs measurements for one fleet over one simulator.
type Campaign struct {
	Sim   *netsim.Simulator
	Fleet *probes.Fleet
	Cfg   Config
}

// New assembles a campaign, validating cfg first.
func New(sim *netsim.Simulator, fleet *probes.Fleet, cfg Config) (*Campaign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Campaign{Sim: sim, Fleet: fleet, Cfg: cfg.withDefaults()}, nil
}

// Run executes the campaign and returns the collected dataset. It
// respects ctx cancellation, returning the records collected so far
// together with ctx.Err(); all workers are joined before Run returns,
// cancelled or not.
func (c *Campaign) Run(ctx context.Context) (*dataset.Store, Stats, error) {
	cfg := c.Cfg
	st := Stats{SamplesPerCountry: make(map[string]int)}
	m := newCampaignMetrics(cfg.Obs)
	ctx, span := obs.StartSpan(ctx, "measure.campaign")
	defer span.End()
	clock := newVirtualClock(cfg.RequestsPerMinute)
	brk := newBreaker(breakerThreshold, breakerCooldown.Minutes())
	store := &dataset.Store{}

	tasks := make(chan task)
	results := make(chan any, cfg.Workers*2)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range tasks {
				c.runTask(tk, results)
			}
		}()
	}
	// The collector always emits onto a sink. With no configured sinks
	// the default is a StoreSink over the returned store (the historical
	// materializing path); with several, a bounded bus fans records out
	// to all of them. Injected sink faults only apply to user-supplied
	// sinks, so fault profiles keep their historical meaning for
	// materializing campaigns.
	sinks := make([]dataset.Sink, 0, len(cfg.Sinks)+1)
	for _, s := range cfg.Sinks {
		if s != nil {
			sinks = append(sinks, s)
		}
	}
	external := len(sinks) > 0
	if !external {
		sinks = append(sinks, dataset.NewStoreSink(store))
	}
	sink := sinks[0]
	if len(sinks) > 1 {
		sink = sample.NewBus(sample.BusOptions{Obs: cfg.Obs}, sinks...)
	}

	col := &collector{sink: sink, external: external, inj: cfg.Faults, store: store, st: &st, m: m}
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		col.run(results)
	}()

	err := c.dispatch(ctx, tasks, clock, brk, &st, m)
	close(tasks)
	wg.Wait()
	close(results)
	<-collectorDone
	if cerr := sink.Close(); cerr != nil && external && col.err == nil {
		col.err = cerr
	}
	if err == nil && col.err != nil {
		err = fmt.Errorf("measure: sink degraded, %d records spilled to the in-memory store: %w",
			st.Spilled, col.err)
	}
	if bus, ok := sink.(*sample.Bus); ok {
		bs := bus.Stats()
		st.BusHighWater = bs.HighWater
		st.BusStalls = int(bs.Stalls)
		st.BusDropped = int(bs.Dropped)
	}
	st.Requests = clock.requests
	st.VirtualDuration = clock.elapsed()
	span.SetAttr("pings", fmt.Sprint(st.Pings))
	span.SetAttr("traceroutes", fmt.Sprint(st.Traceroutes))
	span.SetAttr("countries", fmt.Sprint(st.CountriesCycled))
	return store, st, err
}

// collector is the single goroutine that owns record delivery onto the
// sink (possibly a fan-out bus), with transient-error retries and
// permanent-failure spill into the in-memory store.
type collector struct {
	sink dataset.Sink
	// external is true when the sink set was supplied by the caller;
	// injected sink faults and spill accounting only apply then — the
	// internal default StoreSink cannot fail.
	external bool
	inj      faults.Injector
	store    *dataset.Store
	st       *Stats
	m        *campaignMetrics
	seq      int
	broken   bool
	err      error // first permanent sink error
}

func (co *collector) run(results <-chan any) {
	for r := range results {
		switch rec := r.(type) {
		case dataset.PingRecord:
			co.st.Pings++
			co.st.SamplesPerCountry[rec.VP.Country]++
			co.m.pings.Inc()
			co.m.rtt.Observe(rec.RTTms)
			co.deliver(func() error { return co.sink.Ping(rec) }, func() { co.store.AddPing(rec) })
		case dataset.TracerouteRecord:
			co.st.Traceroutes++
			co.m.traces.Inc()
			co.deliver(func() error { return co.sink.Trace(rec) }, func() { co.store.AddTrace(rec) })
		}
	}
}

// maxSinkRetries bounds consecutive transient-error retries per record;
// a storm longer than this counts as a persistent failure.
const maxSinkRetries = 3

// deliver routes one record: to the sink (retrying injected transient
// errors), or — once the sink has degraded — into the in-memory store,
// so a broken sink costs memory, never data.
func (co *collector) deliver(toSink func() error, toStore func()) {
	if co.broken {
		toStore()
		co.spill()
		return
	}
	for try := 0; ; try++ {
		if co.external && co.inj != nil {
			if err := co.inj.Sink(co.seq); err != nil {
				co.seq++
				if faults.IsTransient(err) && try < maxSinkRetries {
					co.st.SinkRetries++
					co.m.sinkRetries.Inc()
					continue
				}
				co.degrade(err)
				toStore()
				co.spill()
				return
			}
		}
		co.seq++
		if err := toSink(); err != nil {
			// A real write error is not safely retryable (the write may
			// have partially landed): degrade immediately.
			co.degrade(err)
			toStore()
			co.spill()
			return
		}
		return
	}
}

func (co *collector) spill() {
	co.st.Spilled++
	co.m.spilled.Inc()
}

func (co *collector) degrade(err error) {
	co.broken = true
	co.st.SinkDegraded = true
	if co.err == nil {
		co.err = err
	}
}

// dispatch walks cycles → countries → probes → targets, enqueueing
// tasks under the rate limit and quota. It also books the per-cycle
// discovery snapshots, probe-persistence counters and fault resolution
// (retries, breaker).
func (c *Campaign) dispatch(ctx context.Context, tasks chan<- task, clock *virtualClock,
	brk *breaker, st *Stats, m *campaignMetrics) error {
	cfg := c.Cfg
	countries := geo.AllCountries()
	var only map[string]bool
	if len(cfg.Countries) > 0 {
		only = make(map[string]bool, len(cfg.Countries))
		for _, cc := range cfg.Countries {
			only[cc] = true
		}
	}
	connectedCycles := make(map[string]int)
	// The cycle window [FromCycle, ToCycle) clamps the sweep onto a slice
	// of the campaign time axis.
	endCycle := cfg.Cycles
	if cfg.ToCycle > 0 && cfg.ToCycle < endCycle {
		endCycle = cfg.ToCycle
	}
	rng := detrand.New(0) // this goroutine's generator, re-seeded per draw key
	// One span per country sweep; cspan outlives each iteration so the
	// deferred End covers the early returns mid-cycle (End is idempotent,
	// so the per-iteration End makes the deferred one a no-op normally).
	var cspan *obs.Span
	defer func() { cspan.End() }()
	for cycle := cfg.FromCycle; cycle < endCycle; cycle++ {
		_, cspan = obs.StartSpan(ctx, "measure.cycle")
		cspan.SetAttr("cycle", fmt.Sprint(cycle))
		snap := DiscoverySnapshot{Cycle: cycle}
		cycleSpent := 0
		quotaOut := false
		for _, country := range countries {
			if only != nil && !only[country.Code] {
				continue
			}
			all := c.Fleet.InCountry(country.Code)
			if len(all) < cfg.MinProbesPerCountry {
				continue
			}
			if cycle == cfg.FromCycle {
				st.CountriesCycled++
			}
			connected := c.connectedProbes(rng, all, cycle, cfg.ProbesPerCountry)
			snap.Connected += len(connected)
			for _, p := range connected {
				connectedCycles[p.ID]++
			}
			for pi, p := range connected {
				if quotaOut {
					break
				}
				if brk.quarantined(p.ID, clock.now()) {
					st.QuarantineSkipped++
					m.quarantineSkips.Inc()
					continue
				}
				if cfg.Faults != nil && cfg.Faults.ProbeDropout(p.ID, cycle) {
					st.ProbeDropouts++
					m.dropouts.Inc()
					continue
				}
				for _, r := range c.targetsFor(p, cycle, pi) {
					if err := ctx.Err(); err != nil {
						return fmt.Errorf("measure: campaign interrupted: %w", err)
					}
					if cfg.CycleQuota > 0 && cycleSpent >= cfg.CycleQuota {
						// This cycle's budget is gone; skip the rest of its
						// sweep and refresh at the next cycle boundary.
						quotaOut = true
						st.CycleQuotaExhausted++
						m.cycleQuotaExhausted.Inc()
						break
					}
					clock.admit()
					cycleSpent++
					tk := task{probe: p, region: r, cycle: cycle}
					tripped := c.resolveTask(&tk, clock, brk, st, m)
					if tk.doTCP || tk.doICMP || len(tk.traces) > 0 {
						select {
						case tasks <- tk:
						case <-ctx.Done():
							return fmt.Errorf("measure: campaign interrupted: %w", ctx.Err())
						}
					}
					if tripped {
						st.Quarantined++
						m.breakerTrips.Inc()
						break // bench this probe's remaining targets
					}
				}
			}
			if quotaOut {
				break // the rest of this cycle's countries are unfunded
			}
		}
		st.Discovery = append(st.Discovery, snap)
		cspan.End()
	}
	st.EverConnected = len(connectedCycles)
	st.PersistentProbes = 0
	// A probe is persistent when it answered every cycle the (possibly
	// windowed) campaign actually ran.
	fullCycles := endCycle - cfg.FromCycle
	for _, n := range connectedCycles {
		if n == fullCycles {
			st.PersistentProbes++
		}
	}
	return nil
}

// resolveTask decides, deterministically and on the dispatch goroutine,
// which of the task's measurements survive fault injection: each ping
// runs a retry ladder with backoff, each outcome feeds the probe's
// circuit breaker, and lost traceroutes are booked. It reports whether
// the breaker tripped on this task.
func (c *Campaign) resolveTask(tk *task, clock *virtualClock, brk *breaker, st *Stats, m *campaignMetrics) bool {
	tripped := false
	book := func(ok bool) {
		if brk.onResult(tk.probe.ID, ok, clock.now()) {
			tripped = true
		}
	}
	tk.doTCP = c.resolvePing(tk.probe, tk.region, faults.OpPingTCP, tk.cycle, clock, st, m)
	book(tk.doTCP)
	if c.Cfg.BothPingProtocols.Enabled() {
		tk.doICMP = c.resolvePing(tk.probe, tk.region, faults.OpPingICMP, tk.cycle, clock, st, m)
		book(tk.doICMP)
	}
	if c.Cfg.Traceroutes {
		// The second trace carries the decorated cycle so its samples
		// stay decorrelated from the first; sample.CampaignCycle maps it
		// back onto the campaign time axis downstream.
		for _, tc := range []int{tk.cycle, sample.DecorateTraceCycle(tk.cycle)} {
			if c.Cfg.Faults != nil && c.Cfg.Faults.Trace(tk.probe.ID, tk.region.ID, tc).Lost {
				st.TracesLost++
				m.tracesLost.Inc()
				continue
			}
			tk.traces = append(tk.traces, tc)
		}
	}
	return tripped
}

// resolvePing runs one ping measurement's control plane: attempts
// against the injector until success, a final loss, or no injector at
// all (always a success). Retries are booked as platform requests and
// backoff is charged to the virtual clock.
func (c *Campaign) resolvePing(p *probes.Probe, r *cloud.Region, op faults.Op, cycle int,
	clock *virtualClock, st *Stats, m *campaignMetrics) bool {
	cfg := c.Cfg
	st.Attempts++
	m.attempts.Inc()
	if cfg.Faults == nil {
		return true
	}
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			st.Attempts++
			m.attempts.Inc()
		}
		f := cfg.Faults.Ping(p.ID, r.ID, op, cycle, attempt)
		failed := f.Lost
		if !failed && f.DelayMs > taskDeadlineMs {
			st.TimedOut++
			m.timedOut.Inc()
			failed = true
		}
		if !failed {
			return true
		}
		if attempt >= maxRetries {
			st.Lost++
			m.lost.Inc()
			return false
		}
		st.Retries++
		m.retries.Inc()
		clock.admit() // every retry is one more platform request
		clock.delay(backoffMs(backoffBaseMs, backoffMaxMs, attempt,
			jitterU(cfg.Seed, p.ID, r.ID, int(op), cycle, attempt)))
	}
}

// connectedProbes samples which probes answer the 4-hourly discovery
// poll this cycle, then keeps up to limit of them. With diurnal
// modulation on, the country's sweep-phase time of day scales every
// probe's availability — the same RNG draws decide connectivity either
// way, so an amplitude of zero reproduces the unmodulated campaign
// bit-for-bit. rng is the dispatch goroutine's generator.
func (c *Campaign) connectedProbes(rng *rand.Rand, all []*probes.Probe, cycle, limit int) []*probes.Probe {
	var connected []*probes.Probe
	for _, p := range all {
		avail := p.Availability * diurnalFactor(c.Cfg.DiurnalAmplitude, p.Country, cycle)
		if c.rngFor(rng, p.ID, cycle).Float64() < avail {
			connected = append(connected, p)
		}
	}
	if limit <= 0 || len(connected) <= limit {
		return connected
	}
	c.rngFor(rng, all[0].Country, cycle).Shuffle(len(connected), func(i, j int) {
		connected[i], connected[j] = connected[j], connected[i]
	})
	return connected[:limit]
}

// targetsFor selects which regions this probe measures this cycle: a
// rotating window over the same-continent regions plus the §4.3
// neighbour-continent regions for AF and SA.
func (c *Campaign) targetsFor(p *probes.Probe, cycle, probeIdx int) []*cloud.Region {
	inv := c.Sim.W.Inventory
	home := append([]*cloud.Region(nil), inv.RegionsIn(p.Continent)...)
	var neighbor []*cloud.Region
	if c.Cfg.NeighborContinentTargets {
		switch p.Continent {
		case geo.AF:
			neighbor = append(neighbor, inv.RegionsIn(geo.EU)...)
			neighbor = append(neighbor, inv.RegionsIn(geo.NA)...)
		case geo.SA:
			neighbor = append(neighbor, inv.RegionsIn(geo.NA)...)
		}
	}
	if f := c.Cfg.RegionAvailable; f != nil {
		home = filterRegions(home, f, cycle)
		neighbor = filterRegions(neighbor, f, cycle)
	}
	if len(home)+len(neighbor) == 0 {
		return nil
	}
	n := c.Cfg.TargetsPerProbe
	if n >= len(home)+len(neighbor) {
		return append(home, neighbor...)
	}
	// The probe's geographically nearest in-continent regions — and,
	// where the §4.3 neighbour targeting applies, the nearest
	// neighbour-continent regions — are measured every cycle: the
	// paper's per-probe "closest datacenter" series needs density
	// there. A rotating window covers the rest of the pool across
	// cycles. Each region's distance is computed once and the sort
	// compares the stored values, nearest first, ties by ID.
	byDistance := func(pool []*cloud.Region) {
		type near struct {
			r *cloud.Region
			d float64
		}
		ns := make([]near, len(pool))
		for i, r := range pool {
			ns[i] = near{r, geo.DistanceKm(p.Loc, r.Loc)}
		}
		slices.SortFunc(ns, func(a, b near) int {
			return cmp.Or(cmp.Compare(a.d, b.d), strings.Compare(a.r.ID, b.r.ID))
		})
		for i, n := range ns {
			pool[i] = n.r
		}
	}
	byDistance(home)
	byDistance(neighbor)
	alwaysHome := 3
	if alwaysHome > n {
		alwaysHome = n
	}
	if alwaysHome > len(home) {
		alwaysHome = len(home)
	}
	out := append([]*cloud.Region(nil), home[:alwaysHome]...)
	alwaysNeighbor := 2
	if alwaysNeighbor > len(neighbor) {
		alwaysNeighbor = len(neighbor)
	}
	if len(out)+alwaysNeighbor > n {
		alwaysNeighbor = n - len(out)
	}
	out = append(out, neighbor[:alwaysNeighbor]...)
	rest := append(home[alwaysHome:], neighbor[alwaysNeighbor:]...)
	if len(rest) == 0 {
		return out
	}
	// Stride through the remainder so each cycle samples a spread of
	// distances rather than one contiguous (and geographically
	// clustered) run of the sorted pool.
	rotating := n - len(out)
	if rotating <= 0 {
		return out
	}
	stride := len(rest) / rotating
	if stride < 1 {
		stride = 1
	}
	start := (cycle + probeIdx*7) % len(rest)
	for i := 0; len(out) < n; i++ {
		out = append(out, rest[(start+i*stride+i)%len(rest)])
	}
	return out
}

// filterRegions keeps the regions avail admits for this cycle — the
// scenario plane's launch gate. pool is always a fresh slice here, so
// filtering in place is safe.
func filterRegions(pool []*cloud.Region, avail func(string, int) bool, cycle int) []*cloud.Region {
	kept := pool[:0]
	for _, r := range pool {
		if avail(r.ID, cycle) {
			kept = append(kept, r)
		}
	}
	return kept
}

// diurnalFactor is the availability multiplier of a country's discovery
// poll at the virtual time of day its sweep phase lands on: a cosine
// night share scaled by the configured amplitude, so the factor spans
// [1−A, 1]. Pure in (country, cycle) — modulated campaigns replay
// bit-identically.
func diurnalFactor(amplitude float64, country string, cycle int) float64 {
	if amplitude == 0 {
		return 1
	}
	const dayMillis = 24 * 3600 * 1000
	tod := sample.VTimeOf(cycle, country) % dayMillis
	nightShare := 0.5 - 0.5*math.Cos(2*math.Pi*float64(tod)/float64(dayMillis))
	return 1 - amplitude*nightShare
}

// runTask executes a task's surviving measurements on a worker, all
// over one forwarding plan.
func (c *Campaign) runTask(tk task, results chan<- any) {
	pr := c.Sim.Pair(tk.probe, tk.region)
	if tk.doTCP {
		results <- pr.Ping(dataset.TCP, tk.cycle)
	}
	if tk.doICMP {
		results <- pr.Ping(dataset.ICMP, tk.cycle)
	}
	for _, tc := range tk.traces {
		results <- pr.Traceroute(tc)
	}
}

// rngFor re-seeds rng for one campaign-side draw keyed by (key, cycle)
// and the campaign seed, and returns it.
func (c *Campaign) rngFor(rng *rand.Rand, key string, cycle int) *rand.Rand {
	rng.Seed(detrand.NewHash().Str(key).Bytes(byte(cycle), byte(cycle>>8)).Int64(c.Cfg.Seed).Seed())
	return rng
}

// virtualClock books measurement requests against the rate limit
// without sleeping.
type virtualClock struct {
	minutesPerRequest float64

	requests int
	minutes  float64
}

func newVirtualClock(requestsPerMinute float64) *virtualClock {
	return &virtualClock{minutesPerRequest: 1 / requestsPerMinute}
}

// admit books one request at the rate limit.
func (v *virtualClock) admit() {
	v.requests++
	v.minutes += v.minutesPerRequest
}

// delay charges ms of virtual wall time (retry backoff) to the clock.
func (v *virtualClock) delay(ms float64) {
	v.minutes += ms / 60000
}

// now returns the current virtual minute.
func (v *virtualClock) now() float64 { return v.minutes }

func (v *virtualClock) elapsed() time.Duration {
	return time.Duration(v.minutes * float64(time.Minute))
}
