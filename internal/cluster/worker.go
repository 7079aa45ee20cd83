package cluster

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wirecodec"
)

// WorkerOptions configures one campaign worker.
type WorkerOptions struct {
	// Name identifies the worker to the coordinator (heartbeats, span
	// attributes, error messages). Defaults to "worker".
	Name string
	// Obs registers the worker's engine and stream instruments; nil
	// runs uninstrumented.
	Obs *obs.Registry
}

// Dialer connects a worker to its coordinator — DialTCP across
// machines, the tests' in-process LocalTransport.Dial otherwise.
type Dialer func(ctx context.Context) (Conn, error)

// Worker runs campaign shards on behalf of a coordinator: it dials,
// registers, prepares the study world once from the broadcast
// campaign config, then loops lease → run shard → stream records →
// shard_done until the coordinator says shutdown.
type Worker struct {
	opts    WorkerOptions
	cShards *obs.Counter
	txF     *obs.Counter
	txB     *obs.Counter
	rxF     *obs.Counter
	rxB     *obs.Counter
}

// NewWorker builds a worker.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Name == "" {
		opts.Name = "worker"
	}
	reg := opts.Obs
	return &Worker{
		opts:    opts,
		cShards: reg.Counter("worker_shards_done_total"),
		txF:     reg.Counter("worker_stream_tx_frames_total"),
		txB:     reg.Counter("worker_stream_tx_bytes_total"),
		rxF:     reg.Counter("worker_stream_rx_frames_total"),
		rxB:     reg.Counter("worker_stream_rx_bytes_total"),
	}
}

// Run serves shards until the coordinator shuts the fleet down. A read
// failure while awaiting a lease is a normal end of service (the
// coordinator tears connections down when the campaign completes);
// any failure while a lease is held is an error — the coordinator
// will reassign the shard.
func (w *Worker) Run(ctx context.Context, dial Dialer) error {
	conn, err := dial(ctx)
	if err != nil {
		return fmt.Errorf("cluster: worker %s dialing: %w", w.opts.Name, err)
	}
	defer conn.Close()
	fw := wirecodec.NewFrameWriter(conn, wirecodec.Options{Frames: w.txF, Bytes: w.txB})
	fr := wirecodec.NewFrameReader(conn, wirecodec.Options{Frames: w.rxF, Bytes: w.rxB})
	if err := writeControl(fw, msg{Type: msgHello, Worker: w.opts.Name}); err != nil {
		return fmt.Errorf("cluster: worker %s hello: %w", w.opts.Name, err)
	}
	m, err := readControl(fr)
	if err != nil {
		return fmt.Errorf("cluster: worker %s awaiting campaign: %w", w.opts.Name, err)
	}
	if m.Type != msgCampaign || m.Campaign == nil {
		return fmt.Errorf("cluster: worker %s expected campaign, got %q", w.opts.Name, m.Type)
	}
	setup, err := core.Prepare(m.Campaign.coreConfig(w.opts.Obs))
	if err != nil {
		return fmt.Errorf("cluster: worker %s preparing: %w", w.opts.Name, err)
	}
	// One stream writer for the connection's whole life: its dictionary
	// and delta baselines pair with the coordinator's per-connection
	// decoder across shard boundaries.
	wr := wirecodec.NewStreamWriter(fw)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := writeControl(fw, msg{Type: msgLeaseRequest}); err != nil {
			return nil // coordinator gone while idle: clean exit
		}
		m, err := readControl(fr)
		if err != nil {
			return nil // torn down while idle: clean exit
		}
		switch m.Type {
		case msgShutdown:
			return nil
		case msgLease:
			if err := w.runShard(ctx, setup, fw, wr, m); err != nil {
				return err
			}
			w.cShards.Inc()
		default:
			return fmt.Errorf("cluster: worker %s expected lease, got %q", w.opts.Name, m.Type)
		}
	}
}

// runShard executes one leased unit: the campaign restricted to the
// lease's countries and cycle window, streamed through the shared wire
// writer, sealed with a shard_done carrying this unit's record counts
// and the worker's cumulative telemetry.
func (w *Worker) runShard(ctx context.Context, setup *core.Setup, fw *wirecodec.FrameWriter, wr *wirecodec.Writer, grant msg) error {
	p0, t0 := wr.Len()
	stop := func() {}
	if grant.LeaseTTLMs > 0 {
		var hbCtx context.Context
		hbCtx, stop = context.WithCancel(ctx)
		go w.heartbeat(hbCtx, fw, grant.Shard, time.Duration(grant.LeaseTTLMs)*time.Millisecond/3)
	}
	_, _, _, err := setup.RunCampaignsWindow(ctx, grant.Countries, grant.FromCycle, grant.ToCycle, wr)
	stop()
	if err != nil {
		return fmt.Errorf("cluster: worker %s shard %d: %w", w.opts.Name, grant.Shard, err)
	}
	if err := wr.Close(); err != nil {
		return fmt.Errorf("cluster: worker %s flushing shard %d: %w", w.opts.Name, grant.Shard, err)
	}
	p1, t1 := wr.Len()
	return writeControl(fw, w.telemetry(msg{Type: msgShardDone, Shard: grant.Shard, Pings: p1 - p0, Traces: t1 - t0}))
}

// telemetry stamps a control message with the worker's cumulative
// engine counters: cycle-quota exhaustions and injected fault strikes,
// summed across the fault kinds. Both read this worker's own registry
// (zero when the worker runs uninstrumented); the coordinator turns the
// cumulative values into deltas on its cluster_worker_* rollups.
func (w *Worker) telemetry(m msg) msg {
	m.QuotaExhausted = w.opts.Obs.Counter("measure_cycle_quota_exhausted_total").Load()
	m.FaultStrikes = w.opts.Obs.SumCounters("faults_injected_total")
	return m
}

// heartbeat keeps the lease warm while a long shard computes between
// flushes. Write errors are left for the campaign's own sink writes to
// surface; the loop just stops.
func (w *Worker) heartbeat(ctx context.Context, fw *wirecodec.FrameWriter, shard int, every time.Duration) {
	if every <= 0 {
		every = time.Millisecond
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-obs.After(every):
			if writeControl(fw, w.telemetry(msg{Type: msgHeartbeat, Shard: shard})) != nil {
				return
			}
		}
	}
}
