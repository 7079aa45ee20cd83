package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/probes"
	"repro/internal/sample"
	"repro/internal/wirecodec"
)

// DefaultShards is the shard count when CoordinatorOptions.Shards is
// zero: enough parallelism for a handful of workers without slicing
// the country set into confetti.
const DefaultShards = 8

// CoordinatorOptions configures a campaign coordinator.
type CoordinatorOptions struct {
	// Campaign is broadcast to every worker; both sides derive their
	// world and fleets from it.
	Campaign CampaignConfig
	// Shards is the number of country groups to lease out (default
	// DefaultShards, capped at the country count). Groups are bin-packed
	// by per-country probe allocation so every lease carries comparable
	// work.
	Shards int
	// CycleWindows splits the campaign's cycle axis into that many
	// contiguous windows, multiplying the lease units: each unit is one
	// (country group, cycle window) and replays independently.
	// Campaign.Cycles must be set explicitly when CycleWindows > 1 (the
	// coordinator cannot see core's default). A group's windows commit
	// to the merge bus in ascending order — the window barrier — so
	// per-probe arrival order, and with it the sealed store's digest,
	// matches the single-process sweep. Default 1: whole-campaign
	// leases, the pre-windowed behavior.
	CycleWindows int
	// LeaseTTL bounds how long a lease may go without any frame from
	// its worker before the coordinator declares the worker dead and
	// re-queues the shard. Zero disables expiry: only connection errors
	// reassign.
	LeaseTTL time.Duration
	// Clock feeds lease expiry; required when LeaseTTL > 0 (the admit
	// pattern: the caller owns the clock, tests hand-crank it).
	Clock Clock
	// AllowFaults permits a fault-injecting campaign, surrendering the
	// bit-identical merge guarantee (fault windows couple countries
	// through the shared virtual clock). Off by default.
	AllowFaults bool
	// Obs registers the cluster instruments and the merge bus's; nil
	// runs uninstrumented.
	Obs *obs.Registry
}

// Result summarizes a coordinator run.
type Result struct {
	// Shards is how many lease units the campaign was split into:
	// country groups × cycle windows.
	Shards int
	// Groups and Windows are the two factors of Shards.
	Groups  int
	Windows int
	// Workers is how many distinct workers registered.
	Workers int
	// Assigned counts lease grants, including re-grants of reclaimed
	// shards; Reassigned counts shards reclaimed from dead workers.
	Assigned   int
	Reassigned int
	// Pings and Traces are the merged record totals.
	Pings  uint64
	Traces uint64
}

// Coordinator leases campaign shards to workers and merges their
// record streams into the mounted sinks. Build with NewCoordinator,
// drive with Run.
type Coordinator struct {
	opts  CoordinatorOptions
	sinks []dataset.Sink

	gWorkers    *obs.Gauge
	cAssigned   *obs.Counter
	cReassigned *obs.Counter
	cDone       *obs.Counter
	cExpired    *obs.Counter
	cQuota      *obs.Counter
	cFaults     *obs.Counter
	rxFrames    *obs.Counter
	rxBytes     *obs.Counter
	txFrames    *obs.Counter
	txBytes     *obs.Counter
}

// NewCoordinator validates the options and builds a coordinator over
// the given sinks (a store.Feed, an export sink, any combination).
func NewCoordinator(opts CoordinatorOptions, sinks ...dataset.Sink) (*Coordinator, error) {
	if opts.LeaseTTL > 0 && opts.Clock == nil {
		return nil, fmt.Errorf("cluster: LeaseTTL %v requires a Clock", opts.LeaseTTL)
	}
	if p := opts.Campaign.FaultProfile; p != "" && p != "none" && !opts.AllowFaults {
		return nil, fmt.Errorf("cluster: fault profile %q breaks bit-identical shard merging; set AllowFaults to run it anyway", p)
	}
	if q := opts.Campaign.CycleQuota; q != 0 && !opts.AllowFaults {
		return nil, fmt.Errorf("cluster: cycle quota %d couples countries through the shared per-cycle budget, breaking bit-identical shard merging; set AllowFaults to run it anyway", q)
	}
	if opts.CycleWindows > 1 && opts.Campaign.Cycles <= 0 {
		return nil, fmt.Errorf("cluster: CycleWindows %d requires an explicit Campaign.Cycles", opts.CycleWindows)
	}
	if opts.Shards <= 0 {
		opts.Shards = DefaultShards
	}
	reg := opts.Obs
	return &Coordinator{
		opts: opts, sinks: sinks,
		gWorkers:    reg.Gauge("cluster_workers_live"),
		cAssigned:   reg.Counter("cluster_shards_assigned_total"),
		cReassigned: reg.Counter("cluster_shards_reassigned_total"),
		cDone:       reg.Counter("cluster_shards_done_total"),
		cExpired:    reg.Counter("cluster_lease_expiries_total"),
		cQuota:      reg.Counter("cluster_worker_quota_exhausted_total"),
		cFaults:     reg.Counter("cluster_worker_fault_strikes_total"),
		rxFrames:    reg.Counter("cluster_stream_rx_frames_total"),
		rxBytes:     reg.Counter("cluster_stream_rx_bytes_total"),
		txFrames:    reg.Counter("cluster_stream_tx_frames_total"),
		txBytes:     reg.Counter("cluster_stream_tx_bytes_total"),
	}, nil
}

// lease is one shard currently assigned to a worker connection.
type lease struct {
	shard    int
	worker   string
	conn     Conn
	lastBeat time.Duration
}

// runState is the shared bookkeeping of one Run. A lease unit ("shard"
// in the protocol) is one (country group, cycle window) pair, flattened
// as shard = window*len(groups) + group, so the FIFO pending queue
// hands out every group's first window before any later one.
type runState struct {
	groups  [][]string
	windows int
	cycles  int
	pending chan int      // units awaiting (re-)assignment; cap = unit count
	doneCh  chan struct{} // closed when every unit has merged, or on fatal error
	once    sync.Once

	// commitMu serializes bus commits (the bus is single-producer) and
	// guards the window barrier state below.
	commitMu sync.Mutex
	nextWin  []int             // per group: the next window allowed to commit
	held     map[int]heldShard // accepted units parked at the barrier

	mu         sync.Mutex
	remaining  int
	leases     map[int]*lease
	conns      map[Conn]struct{}
	workers    map[string]bool
	assigned   int
	reassigned int
	pings      uint64
	traces     uint64
	err        error
}

// heldShard is a completed lease unit whose group has an earlier window
// still uncommitted; its records wait, copied, at the window barrier.
type heldShard struct {
	worker string
	pings  []sample.Sample
	traces []sample.TraceSample
}

func (st *runState) unitCount() int     { return len(st.groups) * st.windows }
func (st *runState) groupOf(u int) int  { return u % len(st.groups) }
func (st *runState) windowOf(u int) int { return u / len(st.groups) }

// windowRange is the half-open cycle range of one window: an even split
// of the campaign's cycles with the remainder spread over the leading
// windows. A single window means an unbounded lease (the zero window),
// preserving the pre-windowed wire form.
func (st *runState) windowRange(win int) (from, to int) {
	if st.windows <= 1 {
		return 0, 0
	}
	base, rem := st.cycles/st.windows, st.cycles%st.windows
	from = win*base + min(win, rem)
	to = from + base
	if win < rem {
		to++
	}
	return from, to
}

func (st *runState) finish() { st.once.Do(func() { close(st.doneCh) }) }

func (st *runState) fail(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.mu.Unlock()
	st.finish()
}

// Run accepts workers on ln, leases every shard, merges the returned
// streams, and finishes when all shards have committed (or ctx is
// done). The merged totals and assignment ledger come back in Result.
func (c *Coordinator) Run(ctx context.Context, ln Listener) (Result, error) {
	camp := c.opts.Campaign
	groups := partitionCountries(c.opts.Shards,
		probes.CountryQuotas(probes.Config{Seed: camp.Seed, Scale: camp.Scale}))
	windows := c.opts.CycleWindows
	if windows <= 0 {
		windows = 1
	}
	if windows > 1 && windows > camp.Cycles {
		windows = camp.Cycles
	}
	n := len(groups) * windows
	st := &runState{
		groups:    groups,
		windows:   windows,
		cycles:    camp.Cycles,
		pending:   make(chan int, n),
		doneCh:    make(chan struct{}),
		remaining: n,
		nextWin:   make([]int, len(groups)),
		held:      map[int]heldShard{},
		leases:    map[int]*lease{},
		conns:     map[Conn]struct{}{},
		workers:   map[string]bool{},
	}
	for i := 0; i < n; i++ {
		st.pending <- i
	}
	if n == 0 {
		st.finish()
	}
	bus := sample.NewBus(sample.BusOptions{Obs: c.opts.Obs}, c.sinks...)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept(runCtx)
			if err != nil {
				return
			}
			st.mu.Lock()
			st.conns[conn] = struct{}{}
			st.mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.handleConn(runCtx, st, bus, conn)
				st.mu.Lock()
				delete(st.conns, conn)
				st.mu.Unlock()
				conn.Close()
			}()
		}
	}()
	if c.opts.LeaseTTL > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.reap(runCtx, st)
		}()
	}

	select {
	case <-st.doneCh:
	case <-ctx.Done():
	}
	cancel()
	ln.Close()
	// Unblock handlers parked in ReadFrame on idle connections.
	st.mu.Lock()
	for conn := range st.conns {
		conn.Close()
	}
	st.mu.Unlock()
	wg.Wait()
	busErr := bus.Close()

	st.mu.Lock()
	res := Result{
		Shards: n, Groups: len(groups), Windows: windows,
		Workers:  len(st.workers),
		Assigned: st.assigned, Reassigned: st.reassigned,
		Pings: st.pings, Traces: st.traces,
	}
	remaining, err := st.remaining, st.err
	st.mu.Unlock()
	if err == nil {
		err = busErr
	}
	if err == nil && ctx.Err() != nil {
		err = fmt.Errorf("cluster: coordinator stopped with %d of %d shards unmerged: %w",
			remaining, n, ctx.Err())
	}
	return res, err
}

// handleConn owns one worker connection for its lifetime: handshake,
// lease grants, stream buffering, commit on shard_done. Any error —
// protocol, codec, transport — simply ends the connection; the
// deferred requeue puts an in-flight shard back on the market.
func (c *Coordinator) handleConn(ctx context.Context, st *runState, bus *sample.Bus, conn Conn) {
	fr := wirecodec.NewFrameReader(conn, wirecodec.Options{Frames: c.rxFrames, Bytes: c.rxBytes})
	fw := wirecodec.NewFrameWriter(conn, wirecodec.Options{Frames: c.txFrames, Bytes: c.txBytes})
	hello, err := readControl(fr)
	if err != nil || hello.Type != msgHello {
		return
	}
	worker := hello.Worker
	st.mu.Lock()
	st.workers[worker] = true
	st.mu.Unlock()
	c.gWorkers.Add(1)
	defer c.gWorkers.Add(-1)
	camp := c.opts.Campaign
	if err := writeControl(fw, msg{Type: msgCampaign, Campaign: &camp}); err != nil {
		return
	}

	// One decoder for the connection's whole life: the wire dictionary
	// and delta baselines span shard boundaries.
	dec := wirecodec.NewDecoder()
	var cur *lease
	var bufP []sample.Sample
	var bufT []sample.TraceSample
	// Last telemetry values reported by this worker; its counters are
	// cumulative, so the connection contributes deltas to the rollups.
	var lastQuota, lastFaults uint64
	defer func() {
		if cur != nil {
			c.requeue(st, cur)
		}
	}()
	for {
		payload, err := fr.ReadFrame()
		if err != nil {
			return
		}
		if cur != nil && c.opts.Clock != nil {
			// Any frame is proof of life, not just heartbeats: a worker
			// mid-stream is as alive as one idling between batches.
			st.mu.Lock()
			cur.lastBeat = c.opts.Clock()
			st.mu.Unlock()
		}
		switch payload[0] {
		case wirecodec.FrameControl:
			m, err := parseControl(payload)
			if err != nil {
				return
			}
			switch m.Type {
			case msgLeaseRequest:
				if cur != nil {
					return // a lease is already out; protocol violation
				}
				select {
				case id := <-st.pending:
					var now time.Duration
					if c.opts.Clock != nil {
						now = c.opts.Clock()
					}
					cur = &lease{shard: id, worker: worker, conn: conn, lastBeat: now}
					st.mu.Lock()
					st.leases[id] = cur
					st.assigned++
					st.mu.Unlock()
					c.cAssigned.Inc()
					bufP, bufT = bufP[:0], bufT[:0]
					from, to := st.windowRange(st.windowOf(id))
					grant := msg{Type: msgLease, Shard: id,
						Countries: st.groups[st.groupOf(id)],
						FromCycle: from, ToCycle: to,
						LeaseTTLMs: c.opts.LeaseTTL.Milliseconds()}
					if err := writeControl(fw, grant); err != nil {
						return
					}
				case <-st.doneCh:
					writeControl(fw, msg{Type: msgShutdown})
					return
				case <-ctx.Done():
					return
				}
			case msgHeartbeat:
				// Liveness already refreshed above.
				c.noteTelemetry(m, &lastQuota, &lastFaults)
			case msgShardDone:
				if cur == nil || m.Shard != cur.shard {
					return
				}
				c.noteTelemetry(m, &lastQuota, &lastFaults)
				if m.Pings != uint64(len(bufP)) || m.Traces != uint64(len(bufT)) {
					st.fail(fmt.Errorf(
						"cluster: worker %s shard %d reports %d pings / %d traces but the stream carried %d / %d",
						worker, cur.shard, m.Pings, m.Traces, len(bufP), len(bufT)))
					return
				}
				if err := c.accept(ctx, st, bus, cur, bufP, bufT); err != nil {
					st.fail(err)
					return
				}
				st.mu.Lock()
				delete(st.leases, cur.shard)
				st.pings += uint64(len(bufP))
				st.traces += uint64(len(bufT))
				st.remaining--
				done := st.remaining == 0
				st.mu.Unlock()
				cur = nil
				c.cDone.Inc()
				if done {
					st.finish()
				}
			default:
				return
			}
		case wirecodec.FramePings:
			if cur == nil {
				return
			}
			err := dec.DecodePings(payload, func(s sample.Sample) error {
				bufP = append(bufP, s)
				return nil
			})
			if err != nil {
				return
			}
		case wirecodec.FrameTraces:
			if cur == nil {
				return
			}
			err := dec.DecodeTraces(payload, func(t sample.TraceSample) error {
				bufT = append(bufT, t)
				return nil
			})
			if err != nil {
				return
			}
		default:
			return
		}
	}
}

// requeue reclaims a dead worker's shard: the buffered partial stream
// is discarded by the caller and the shard goes back on the pending
// queue for the next lease_request — exactly-once by construction.
func (c *Coordinator) requeue(st *runState, l *lease) {
	st.mu.Lock()
	if st.leases[l.shard] != l {
		st.mu.Unlock()
		return
	}
	delete(st.leases, l.shard)
	st.reassigned++
	st.mu.Unlock()
	c.cReassigned.Inc()
	st.pending <- l.shard // cap = len(shards): never blocks
}

// noteTelemetry folds a worker's cumulative engine counters into the
// cluster rollups. Counters only grow, so each connection contributes
// the delta since its last report; a reassigned shard's replacement
// worker reports on its own connection, so nothing double-counts.
func (c *Coordinator) noteTelemetry(m msg, lastQuota, lastFaults *uint64) {
	if m.QuotaExhausted > *lastQuota {
		c.cQuota.Add(m.QuotaExhausted - *lastQuota)
		*lastQuota = m.QuotaExhausted
	}
	if m.FaultStrikes > *lastFaults {
		c.cFaults.Add(m.FaultStrikes - *lastFaults)
		*lastFaults = m.FaultStrikes
	}
}

// accept merges one completed lease unit, upholding the per-group
// window barrier: a group's windows commit in ascending order so every
// probe's samples reach the feed in cycle order — the per-probe arrival
// order the store's bit-identical seal contract depends on. A unit
// finishing ahead of its predecessor is copied aside (the caller reuses
// its buffers) and flushed here by the predecessor's commit.
func (c *Coordinator) accept(ctx context.Context, st *runState, bus *sample.Bus, l *lease, pings []sample.Sample, traces []sample.TraceSample) error {
	st.commitMu.Lock()
	defer st.commitMu.Unlock()
	g := st.groupOf(l.shard)
	if st.windowOf(l.shard) != st.nextWin[g] {
		st.held[l.shard] = heldShard{
			worker: l.worker,
			pings:  append([]sample.Sample(nil), pings...),
			traces: append([]sample.TraceSample(nil), traces...),
		}
		return nil
	}
	unit, worker := l.shard, l.worker
	for {
		if err := c.commit(ctx, bus, unit, worker, pings, traces); err != nil {
			return err
		}
		st.nextWin[g]++
		next := g + st.nextWin[g]*len(st.groups)
		h, ok := st.held[next]
		if !ok {
			return nil
		}
		delete(st.held, next)
		unit, worker, pings, traces = next, h.worker, h.pings, h.traces
	}
}

// commit replays one lease unit's buffered records into the merge bus,
// under accept's commitMu — the bus's single-producer contract. Within
// the unit, per-kind record order is the worker's engine order, which
// together with the window barrier is all store.Feed needs for a
// bit-identical seal.
func (c *Coordinator) commit(ctx context.Context, bus *sample.Bus, unit int, worker string, pings []sample.Sample, traces []sample.TraceSample) error {
	_, span := obs.StartSpan(ctx, "cluster.merge")
	span.SetAttr("shard", fmt.Sprint(unit))
	span.SetAttr("worker", worker)
	span.SetAttr("pings", fmt.Sprint(len(pings)))
	span.SetAttr("traces", fmt.Sprint(len(traces)))
	defer span.End()
	for _, p := range pings {
		//lint:ignore lockheld commitMu exists to serialize bus producers; blocking waiters on backpressure is the intended flow control
		if err := bus.Ping(p); err != nil {
			return fmt.Errorf("cluster: merging shard %d: %w", unit, err)
		}
	}
	for _, t := range traces {
		//lint:ignore lockheld commitMu exists to serialize bus producers; blocking waiters on backpressure is the intended flow control
		if err := bus.Trace(t); err != nil {
			return fmt.Errorf("cluster: merging shard %d: %w", unit, err)
		}
	}
	return nil
}

// reap expires leases that have gone quiet past the TTL by closing
// their connections; the connection handler then requeues the shard.
// Paced on obs.After so the package stays wall-clock-free.
func (c *Coordinator) reap(ctx context.Context, st *runState) {
	interval := c.opts.LeaseTTL / 4
	if interval <= 0 {
		interval = c.opts.LeaseTTL
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-st.doneCh:
			return
		case <-obs.After(interval):
			now := c.opts.Clock()
			st.mu.Lock()
			var stale []Conn
			for _, l := range st.leases {
				if now-l.lastBeat > c.opts.LeaseTTL {
					stale = append(stale, l.conn)
				}
			}
			st.mu.Unlock()
			for _, conn := range stale {
				c.cExpired.Inc()
				conn.Close()
			}
		}
	}
}
