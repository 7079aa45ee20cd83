package cluster

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/probes"
	"repro/internal/store"
	"repro/internal/wirecodec"
	"repro/internal/world"
)

// testCampaign is the shared tiny-but-nonempty campaign every cluster
// test runs: small enough to finish fast, big enough that each shard
// streams a few kilobytes (the chaos test's kill trigger needs that).
var testCampaign = CampaignConfig{Seed: 2, Scale: 0.02, Cycles: 1, TargetsPerProbe: 4}

// groundTruths memoizes sealSingleProcess: a sealed store is immutable,
// and several tests compare against the same one.
var (
	groundTruthMu sync.Mutex
	groundTruths  = map[groundTruthKey]*store.Store{}
)

type groundTruthKey struct {
	camp        CampaignConfig
	storeShards int
}

// sealSingleProcess runs the campaign in one process into a fresh feed
// and seals it — the ground truth the distributed runs must match.
func sealSingleProcess(t *testing.T, camp CampaignConfig, storeShards int) *store.Store {
	t.Helper()
	groundTruthMu.Lock()
	defer groundTruthMu.Unlock()
	key := groundTruthKey{camp, storeShards}
	if st := groundTruths[key]; st != nil {
		return st
	}
	setup, err := core.Prepare(camp.coreConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	feed := store.NewFeed(pipeline.NewProcessor(setup.World), store.Options{Shards: storeShards})
	if _, _, _, err := setup.RunCampaigns(context.Background(), feed); err != nil {
		t.Fatal(err)
	}
	st := feed.Seal()
	groundTruths[key] = st
	return st
}

func newTestFeed(t *testing.T, camp CampaignConfig, storeShards int) *store.Feed {
	t.Helper()
	w, err := world.Build(world.Config{Seed: camp.Seed})
	if err != nil {
		t.Fatal(err)
	}
	return store.NewFeed(pipeline.NewProcessor(w), store.Options{Shards: storeShards})
}

func TestPartitionCountries(t *testing.T) {
	all := geo.AllCountries()
	weights := probes.CountryQuotas(probes.Config{Scale: 1})
	for _, n := range []int{1, 3, len(all), len(all) + 50} {
		shards := partitionCountries(n, weights)
		seen := map[string]int{}
		for _, shard := range shards {
			if len(shard) == 0 {
				t.Fatalf("n=%d produced an empty shard", n)
			}
			for _, code := range shard {
				seen[code]++
			}
		}
		if len(seen) != len(all) {
			t.Fatalf("n=%d covers %d of %d countries", n, len(seen), len(all))
		}
		for code, k := range seen {
			if k != 1 {
				t.Fatalf("n=%d assigns %s to %d shards", n, code, k)
			}
		}
	}
}

// TestPartitionCountriesBalanced pins the bin-packer's balance: with
// real probe allocations the heaviest group must weigh at most 1.5×
// the lightest, so no lease is a stand-out straggler.
func TestPartitionCountriesBalanced(t *testing.T) {
	weights := probes.CountryQuotas(probes.Config{Scale: 1})
	for _, n := range []int{2, 4, DefaultShards} {
		shards := partitionCountries(n, weights)
		loads := make([]int, len(shards))
		for i, shard := range shards {
			for _, code := range shard {
				w := weights[code]
				if w <= 0 {
					w = 1
				}
				loads[i] += w
			}
		}
		lo, hi := loads[0], loads[0]
		for _, l := range loads[1:] {
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		if lo == 0 || float64(hi)/float64(lo) > 1.5 {
			t.Errorf("n=%d shard weights %v: max/min ratio %.2f exceeds 1.5", n, loads, float64(hi)/float64(lo))
		}
	}
}

func TestNewCoordinatorValidation(t *testing.T) {
	if _, err := NewCoordinator(CoordinatorOptions{LeaseTTL: time.Second}); err == nil {
		t.Error("LeaseTTL without a Clock must be rejected")
	}
	faulty := CoordinatorOptions{Campaign: CampaignConfig{FaultProfile: "flaky-wireless"}}
	if _, err := NewCoordinator(faulty); err == nil {
		t.Error("fault profile without AllowFaults must be rejected")
	}
	faulty.AllowFaults = true
	if _, err := NewCoordinator(faulty); err != nil {
		t.Errorf("AllowFaults should admit a fault profile: %v", err)
	}
	quota := CoordinatorOptions{Campaign: CampaignConfig{CycleQuota: 100}}
	if _, err := NewCoordinator(quota); err == nil {
		t.Error("cycle quota without AllowFaults must be rejected")
	}
	quota.AllowFaults = true
	if _, err := NewCoordinator(quota); err != nil {
		t.Errorf("AllowFaults should admit a cycle quota: %v", err)
	}
	if _, err := NewCoordinator(CoordinatorOptions{CycleWindows: 3}); err == nil {
		t.Error("CycleWindows without explicit Campaign.Cycles must be rejected")
	}
	if _, err := NewCoordinator(CoordinatorOptions{CycleWindows: 3, Campaign: CampaignConfig{Cycles: 6}}); err != nil {
		t.Errorf("CycleWindows with explicit cycles should be accepted: %v", err)
	}
}

// runFleet drives a coordinator plus n workers over a LocalTransport
// and returns the run result and each worker's error. wrap, when set,
// intercepts worker i's connection (the chaos test's kill switch).
func runFleet(t *testing.T, coord *Coordinator, n int, wrap func(i int, c Conn) Conn) (Result, []error) {
	t.Helper()
	return runFleetWorkers(t, coord, n, wrap, func(i int) WorkerOptions {
		return WorkerOptions{Name: string(rune('a' + i))}
	})
}

// runFleetWorkers is runFleet with per-worker options — the telemetry
// test hands each worker its own registry, as separate processes have.
func runFleetWorkers(t *testing.T, coord *Coordinator, n int, wrap func(i int, c Conn) Conn, optsFor func(i int) WorkerOptions) (Result, []error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	tr := NewLocalTransport()
	type coordOut struct {
		res Result
		err error
	}
	coordCh := make(chan coordOut, 1)
	go func() {
		res, err := coord.Run(ctx, tr)
		coordCh <- coordOut{res, err}
	}()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := NewWorker(optsFor(i))
			errs[i] = w.Run(ctx, func(ctx context.Context) (Conn, error) {
				c, err := tr.Dial(ctx)
				if err != nil || wrap == nil {
					return c, err
				}
				return wrap(i, c), nil
			})
		}(i)
	}
	out := <-coordCh
	if out.err != nil {
		t.Fatalf("coordinator: %v", out.err)
	}
	wg.Wait()
	return out.res, errs
}

// TestFleetMergesBitIdentical is the core tentpole guarantee: three
// workers splitting the sweep produce a sealed store whose every shard
// digest matches the single-process run bit for bit.
func TestFleetMergesBitIdentical(t *testing.T) {
	want := sealSingleProcess(t, testCampaign, 4)

	reg := obs.NewRegistry()
	feed := newTestFeed(t, testCampaign, 4)
	coord, err := NewCoordinator(CoordinatorOptions{
		Campaign: testCampaign, Shards: 4, Obs: reg,
	}, feed)
	if err != nil {
		t.Fatal(err)
	}
	res, errs := runFleet(t, coord, 3, nil)
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if res.Shards != 4 || res.Assigned != 4 || res.Reassigned != 0 {
		t.Errorf("unexpected ledger: %+v", res)
	}
	if res.Workers != 3 {
		t.Errorf("expected 3 registered workers, got %d", res.Workers)
	}
	if res.Pings == 0 || res.Traces == 0 {
		t.Fatalf("fleet streamed nothing: %+v", res)
	}

	got := feed.Seal()
	if got.Digest() != want.Digest() {
		t.Errorf("merged store digest %s != single-process %s", got.Digest(), want.Digest())
	}
	gd, wd := got.ShardDigests(), want.ShardDigests()
	for i := range gd {
		if gd[i] != wd[i] {
			t.Errorf("store shard %d digest diverges: %s != %s", i, gd[i], wd[i])
		}
	}
}

// killConn fails every write from the first "large" one on — the first
// flushed record batch — so the worker dies mid-shard, after real
// sample bytes went nowhere, while its lease is active.
type killConn struct {
	Conn
	mu    sync.Mutex
	limit int
	dead  bool
}

var errInjected = errors.New("injected connection failure")

func (k *killConn) Write(p []byte) (int, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.dead || len(p) >= k.limit {
		k.dead = true
		return 0, errInjected
	}
	return k.Conn.Write(p)
}

// TestChaosWorkerKilledMidSweep kills one of three workers mid-stream
// and requires (a) its shard to be reassigned and (b) the merged store
// to still seal bit-identical to the single-process run — the
// exactly-once, deterministic-replay contract under failure.
func TestChaosWorkerKilledMidSweep(t *testing.T) {
	want := sealSingleProcess(t, testCampaign, 4)

	reg := obs.NewRegistry()
	feed := newTestFeed(t, testCampaign, 4)
	coord, err := NewCoordinator(CoordinatorOptions{
		Campaign: testCampaign, Shards: 4, Obs: reg,
	}, feed)
	if err != nil {
		t.Fatal(err)
	}
	res, errs := runFleet(t, coord, 3, func(i int, c Conn) Conn {
		if i != 0 {
			return c
		}
		return &killConn{Conn: c, limit: 2048}
	})
	if errs[0] == nil {
		t.Fatal("killed worker reported no error; the kill never fired")
	}
	for i, err := range errs[1:] {
		if err != nil {
			t.Errorf("surviving worker %d: %v", i+1, err)
		}
	}
	if res.Reassigned < 1 {
		t.Fatalf("no shard was reassigned: %+v", res)
	}
	if res.Assigned != res.Shards+res.Reassigned {
		t.Errorf("assignment ledger inconsistent: %+v", res)
	}

	got := feed.Seal()
	if got.Digest() != want.Digest() {
		t.Errorf("merged store diverges after chaos: %s != %s", got.Digest(), want.Digest())
	}
	gd, wd := got.ShardDigests(), want.ShardDigests()
	for i := range gd {
		if gd[i] != wd[i] {
			t.Errorf("store shard %d digest diverges after chaos", i)
		}
	}
}

// TestLeaseExpiryReassigns registers a worker that takes a lease and
// goes silent; once the hand-cranked clock passes the TTL the reaper
// must reclaim the shard and a live worker must finish the sweep.
func TestLeaseExpiryReassigns(t *testing.T) {
	var now atomic.Int64
	clock := func() time.Duration { return time.Duration(now.Load()) }

	reg := obs.NewRegistry()
	feed := newTestFeed(t, testCampaign, 4)
	coord, err := NewCoordinator(CoordinatorOptions{
		Campaign: testCampaign, Shards: 2,
		LeaseTTL: 50 * time.Millisecond, Clock: clock, Obs: reg,
	}, feed)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	tr := NewLocalTransport()
	type coordOut struct {
		res Result
		err error
	}
	coordCh := make(chan coordOut, 1)
	go func() {
		res, err := coord.Run(ctx, tr)
		coordCh <- coordOut{res, err}
	}()

	// The silent worker speaks just enough protocol to take a lease.
	conn, err := tr.Dial(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fw := wirecodec.NewFrameWriter(conn, wirecodec.Options{})
	fr := wirecodec.NewFrameReader(conn, wirecodec.Options{})
	if err := writeControl(fw, msg{Type: msgHello, Worker: "silent"}); err != nil {
		t.Fatal(err)
	}
	if m, err := readControl(fr); err != nil || m.Type != msgCampaign {
		t.Fatalf("campaign handshake: %v %v", m, err)
	}
	if err := writeControl(fw, msg{Type: msgLeaseRequest}); err != nil {
		t.Fatal(err)
	}
	grant, err := readControl(fr)
	if err != nil || grant.Type != msgLease {
		t.Fatalf("lease grant: %v %v", grant, err)
	}
	if grant.LeaseTTLMs != 50 {
		t.Errorf("lease advertises TTL %dms, want 50", grant.LeaseTTLMs)
	}

	// Expire the silent lease, then field a live worker. The clock never
	// moves again, so the live worker's leases cannot expire.
	now.Store(int64(time.Hour))
	wErr := make(chan error, 1)
	go func() {
		w := NewWorker(WorkerOptions{Name: "live"})
		wErr <- w.Run(ctx, tr.Dial)
	}()

	out := <-coordCh
	if out.err != nil {
		t.Fatalf("coordinator: %v", out.err)
	}
	if err := <-wErr; err != nil {
		t.Errorf("live worker: %v", err)
	}
	if out.res.Reassigned < 1 {
		t.Fatalf("silent lease never expired: %+v", out.res)
	}
	if got := reg.Counter("cluster_lease_expiries_total").Load(); got < 1 {
		t.Errorf("expiry counter = %d, want >= 1", got)
	}
	if reg.Counter("cluster_shards_done_total").Load() != 2 {
		t.Errorf("done counter = %d, want 2", reg.Counter("cluster_shards_done_total").Load())
	}
	if out.res.Pings == 0 {
		t.Fatal("no records merged after reassignment")
	}
}

// TestClusterMetrics spot-checks the instrument surface the obs
// subsystem scrapes: live-worker gauge returns to zero, stream
// counters moved.
func TestClusterMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	feed := newTestFeed(t, testCampaign, 4)
	coord, err := NewCoordinator(CoordinatorOptions{
		Campaign: testCampaign, Shards: 2, Obs: reg,
	}, feed)
	if err != nil {
		t.Fatal(err)
	}
	res, errs := runFleet(t, coord, 2, nil)
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if g := reg.Gauge("cluster_workers_live").Load(); g != 0 {
		t.Errorf("cluster_workers_live = %d after shutdown, want 0", g)
	}
	if got := reg.Counter("cluster_shards_assigned_total").Load(); got != uint64(res.Assigned) {
		t.Errorf("assigned counter %d != ledger %d", got, res.Assigned)
	}
	if reg.Counter("cluster_stream_rx_frames_total").Load() == 0 ||
		reg.Counter("cluster_stream_rx_bytes_total").Load() == 0 {
		t.Error("stream rx instruments never moved")
	}
}

// windowedCampaign spans two cycles so the cycle axis can be split into
// two windows per country group.
var windowedCampaign = CampaignConfig{Seed: 2, Scale: 0.02, Cycles: 2, TargetsPerProbe: 4}

// TestFleetWindowedMergesBitIdentical is the longitudinal tentpole
// guarantee: splitting every country group into per-window leases —
// (group, cycle window) units replayed independently, possibly out of
// order — still seals bit-identical to the one-process, one-window run,
// thanks to the coordinator's ascending-window commit barrier.
func TestFleetWindowedMergesBitIdentical(t *testing.T) {
	want := sealSingleProcess(t, windowedCampaign, 4)

	feed := newTestFeed(t, windowedCampaign, 4)
	coord, err := NewCoordinator(CoordinatorOptions{
		Campaign: windowedCampaign, Shards: 2, CycleWindows: 2,
	}, feed)
	if err != nil {
		t.Fatal(err)
	}
	res, errs := runFleet(t, coord, 3, nil)
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if res.Groups != 2 || res.Windows != 2 || res.Shards != 4 {
		t.Errorf("expected 2 groups x 2 windows = 4 units, got %+v", res)
	}
	if res.Pings == 0 || res.Traces == 0 {
		t.Fatalf("fleet streamed nothing: %+v", res)
	}

	got := feed.Seal()
	if got.Digest() != want.Digest() {
		t.Errorf("windowed merge digest %s != single-process %s", got.Digest(), want.Digest())
	}
	gd, wd := got.ShardDigests(), want.ShardDigests()
	for i := range gd {
		if gd[i] != wd[i] {
			t.Errorf("store shard %d digest diverges: %s != %s", i, gd[i], wd[i])
		}
	}
}

// TestChaosWindowedReplay kills a worker mid-window and requires the
// coordinator to re-lease just that (group, window) unit — not the
// whole campaign — and the merged store to still seal bit-identical:
// deterministic single-window replay under failure.
func TestChaosWindowedReplay(t *testing.T) {
	want := sealSingleProcess(t, windowedCampaign, 4)

	feed := newTestFeed(t, windowedCampaign, 4)
	coord, err := NewCoordinator(CoordinatorOptions{
		Campaign: windowedCampaign, Shards: 2, CycleWindows: 2,
	}, feed)
	if err != nil {
		t.Fatal(err)
	}
	res, errs := runFleet(t, coord, 3, func(i int, c Conn) Conn {
		if i != 0 {
			return c
		}
		return &killConn{Conn: c, limit: 2048}
	})
	if errs[0] == nil {
		t.Fatal("killed worker reported no error; the kill never fired")
	}
	for i, err := range errs[1:] {
		if err != nil {
			t.Errorf("surviving worker %d: %v", i+1, err)
		}
	}
	if res.Reassigned < 1 {
		t.Fatalf("no window unit was reassigned: %+v", res)
	}
	if res.Assigned != res.Shards+res.Reassigned {
		t.Errorf("assignment ledger inconsistent: %+v", res)
	}

	got := feed.Seal()
	if got.Digest() != want.Digest() {
		t.Errorf("windowed replay diverges after chaos: %s != %s", got.Digest(), want.Digest())
	}
	gd, wd := got.ShardDigests(), want.ShardDigests()
	for i := range gd {
		if gd[i] != wd[i] {
			t.Errorf("store shard %d digest diverges after windowed chaos", i)
		}
	}
}

// TestWorkerTelemetryRollsUp runs a quota-capped, fault-injecting
// campaign (AllowFaults: the run trades bit-identity for telemetry) and
// requires the coordinator's cluster_worker_* rollups to equal the sum
// of the per-worker engine counters shipped on heartbeats/shard_done.
func TestWorkerTelemetryRollsUp(t *testing.T) {
	camp := CampaignConfig{Seed: 2, Scale: 0.02, Cycles: 1, TargetsPerProbe: 4,
		FaultProfile: "flaky-wireless", CycleQuota: 50}
	reg := obs.NewRegistry()
	feed := newTestFeed(t, camp, 4)
	coord, err := NewCoordinator(CoordinatorOptions{
		Campaign: camp, Shards: 2, AllowFaults: true, Obs: reg,
	}, feed)
	if err != nil {
		t.Fatal(err)
	}
	workerRegs := make([]*obs.Registry, 2)
	res, errs := runFleetWorkers(t, coord, 2, nil, func(i int) WorkerOptions {
		workerRegs[i] = obs.NewRegistry()
		return WorkerOptions{Name: string(rune('a' + i)), Obs: workerRegs[i]}
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if res.Pings == 0 {
		t.Fatalf("fleet streamed nothing: %+v", res)
	}
	var wantQuota, wantFaults uint64
	for _, wr := range workerRegs {
		wantQuota += wr.Counter("measure_cycle_quota_exhausted_total").Load()
		wantFaults += wr.SumCounters("faults_injected_total")
	}
	if wantQuota == 0 {
		t.Fatal("quota never exhausted; the telemetry path went unexercised")
	}
	if got := reg.Counter("cluster_worker_quota_exhausted_total").Load(); got != wantQuota {
		t.Errorf("cluster_worker_quota_exhausted_total = %d, workers counted %d", got, wantQuota)
	}
	if got := reg.Counter("cluster_worker_fault_strikes_total").Load(); got != wantFaults {
		t.Errorf("cluster_worker_fault_strikes_total = %d, workers counted %d", got, wantFaults)
	}
}
