// Package cluster is the distributed campaign plane: a coordinator
// that partitions a measurement campaign into country shards and
// leases them to a fleet of worker processes, each running its own
// measure engine and streaming samples back over the binary wire
// protocol (internal/wirecodec), merged through the coordinator's
// sample.Bus into whatever sinks the caller mounts (a store.Feed, an
// export file, both).
//
// # Protocol
//
// Every connection speaks wirecodec frames. Control messages are JSON
// bodies in control frames; samples ride the binary batch frames
// between them, sharing the per-connection dictionary state:
//
//	worker → hello{worker}            coordinator → campaign{config}
//	worker → lease_request            coordinator → lease{shard, countries, cycle window, ttl} | shutdown
//	worker → ping/trace batches, heartbeat{shard, telemetry} …
//	worker → shard_done{shard, pings, traces, telemetry}
//
// No new frame type was introduced for the longitudinal axis: lease
// windows and worker telemetry are fields of the JSON control envelope
// riding the existing FrameControl type, so the wirecodec frame space
// (and its exhaustiveness lint) is untouched.
//
// # Liveness and reassignment
//
// Any frame from a worker refreshes its lease. When a lease goes
// quiet past the TTL the coordinator closes the connection; a closed
// or errored connection with an active lease sends the shard back to
// the pending queue and discards the partial stream. Exactly-once
// merging falls out of that: a shard's records are buffered on the
// coordinator and committed to the bus only when shard_done arrives
// with matching counts, so a dead worker contributes nothing and its
// replacement re-runs the shard from scratch.
//
// # Determinism
//
// Re-running a shard re-emits the identical record stream: probe and
// target selection, retry jitter and every sample value are pure
// functions of (probe, country, cycle) — the same property the
// campaign engine's Countries and cycle-window restrictions rely on —
// and a probe belongs to exactly one country, hence exactly one shard.
// A merged store seals bit-identically to a single-process run (the
// chaos test asserts store.ShardDigests equality) provided the campaign
// stays fault-free with no cycle quota: fault windows and the shared
// per-cycle request budget couple countries through the engine's
// virtual clock, so the coordinator refuses fault profiles and cycle
// quotas unless explicitly forced.
//
// With CoordinatorOptions.CycleWindows > 1 the campaign's cycle axis is
// further split into contiguous windows, and the lease unit becomes
// (country group, cycle window): a six-month campaign replays one
// window at a time. The sealed store's determinism contract is
// per-probe arrival order (probes are sorted at seal), so the
// coordinator commits a group's windows to the merge bus in ascending
// window order — a unit finishing early is parked at that barrier —
// which keeps every probe's stream in cycle order and the merged seal
// bit-identical to the one-process, one-window run.
//
// Like admit, the package never reads the wall clock: lease expiry
// reads the injected Clock, and periodic work paces itself on
// obs.After. Deterministic tests hand-crank the clock.
package cluster

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/wirecodec"
)

// Clock returns elapsed time from an arbitrary fixed origin; it must
// be monotonic (the admit pattern — wall time is never needed).
type Clock func() time.Duration

// CampaignConfig is the campaign shape the coordinator broadcasts to
// every worker in the campaign message: the full core.Config minus
// process-local concerns (registries, sinks). Both sides must derive
// their world and fleets from the same values or shard replay breaks.
type CampaignConfig struct {
	Seed            int64   `json:"seed"`
	Scale           float64 `json:"scale,omitempty"`
	Cycles          int     `json:"cycles,omitempty"`
	TargetsPerProbe int     `json:"targets_per_probe,omitempty"`
	// FaultProfile is carried for completeness but refused by the
	// coordinator unless AllowFaults is set: fault windows consult the
	// shared virtual clock, which couples countries across shards and
	// voids the bit-identical merge guarantee.
	FaultProfile string `json:"fault_profile,omitempty"`
	// Workers is the per-worker engine concurrency (0 = GOMAXPROCS);
	// it does not affect emitted records, only speed.
	Workers int `json:"workers,omitempty"`
	// Scenario and DiurnalAmplitude mirror the core.Config longitudinal
	// knobs. Both are pure functions of (country, cycle) — scenario
	// penalties are additive post-RNG and the diurnal gate draws no
	// extra randomness — so they preserve the bit-identical merge
	// guarantee.
	Scenario         string  `json:"scenario,omitempty"`
	DiurnalAmplitude float64 `json:"diurnal_amplitude,omitempty"`
	// CycleQuota does not preserve it: the per-cycle request budget is
	// shared across every country an engine sweeps, so a sharded run
	// spends it differently than the single process. Refused by the
	// coordinator unless AllowFaults is set, like FaultProfile.
	CycleQuota int `json:"cycle_quota,omitempty"`
}

// coreConfig expands the wire form back into a core.Config.
func (c CampaignConfig) coreConfig(reg *obs.Registry) core.Config {
	return core.Config{
		Seed: c.Seed, Scale: c.Scale, Cycles: c.Cycles,
		TargetsPerProbe: c.TargetsPerProbe, Workers: c.Workers,
		FaultProfile: c.FaultProfile, Obs: reg,
		Scenario:         c.Scenario,
		DiurnalAmplitude: c.DiurnalAmplitude,
		CycleQuota:       c.CycleQuota,
	}
}

// Control message types.
const (
	msgHello        = "hello"
	msgCampaign     = "campaign"
	msgLeaseRequest = "lease_request"
	msgLease        = "lease"
	msgHeartbeat    = "heartbeat"
	msgShardDone    = "shard_done"
	msgShutdown     = "shutdown"
)

// msg is the one JSON envelope every control frame carries; Type
// selects which fields are meaningful.
type msg struct {
	Type       string          `json:"type"`
	Worker     string          `json:"worker,omitempty"`
	Campaign   *CampaignConfig `json:"campaign,omitempty"`
	Shard      int             `json:"shard"`
	Countries  []string        `json:"countries,omitempty"`
	LeaseTTLMs int64           `json:"lease_ttl_ms,omitempty"`
	Pings      uint64          `json:"pings"`
	Traces     uint64          `json:"traces"`
	// FromCycle and ToCycle window a lease on the campaign's cycle axis
	// (half-open, both zero = the whole campaign) — set on lease grants
	// when the coordinator runs with CycleWindows > 1.
	FromCycle int `json:"from_cycle,omitempty"`
	ToCycle   int `json:"to_cycle,omitempty"`
	// QuotaExhausted and FaultStrikes are the worker's cumulative engine
	// counters (cycle-quota exhaustions, injected fault strikes), carried
	// on heartbeats and shard_done; the coordinator folds the deltas into
	// its cluster_worker_* rollups.
	QuotaExhausted uint64 `json:"quota_exhausted,omitempty"`
	FaultStrikes   uint64 `json:"fault_strikes,omitempty"`
}

// writeControl frames, writes and flushes one control message.
// (Control messages must reach the peer promptly; record batches ride
// the shared buffered writer and flush on their own cadence.)
func writeControl(fw *wirecodec.FrameWriter, m msg) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("cluster: encoding %s: %w", m.Type, err)
	}
	if err := fw.WriteFrame(append([]byte{wirecodec.FrameControl}, body...)); err != nil {
		return err
	}
	return fw.Flush()
}

func parseControl(payload []byte) (msg, error) {
	var m msg
	if len(payload) < 1 || payload[0] != wirecodec.FrameControl {
		return m, fmt.Errorf("cluster: expected a control frame, got type 0x%02x", payload[0])
	}
	if err := json.Unmarshal(payload[1:], &m); err != nil {
		return m, fmt.Errorf("cluster: malformed control frame: %w", err)
	}
	return m, nil
}

// readControl reads the next frame and requires it to be control.
func readControl(fr *wirecodec.FrameReader) (msg, error) {
	payload, err := fr.ReadFrame()
	if err != nil {
		return msg{}, err
	}
	return parseControl(payload)
}

// partitionCountries packs every country code into at most n groups by
// greedy LPT bin-packing on weight — a country's probe allocation —
// so groups carry comparable measurement work instead of comparable
// country counts (n is capped at the country count). Sharding by
// country is what makes replay exact: a probe lives in one country, so
// its whole stream comes from one shard. Countries missing from the
// weight map count as 1, so coverage never depends on the weight
// source; ties keep database order, keeping the partition
// deterministic for a given weight map.
func partitionCountries(n int, weight map[string]int) [][]string {
	if n <= 0 {
		n = 1
	}
	all := geo.AllCountries()
	if n > len(all) {
		n = len(all)
	}
	type wc struct {
		code string
		w    int
	}
	ws := make([]wc, len(all))
	for i, c := range all {
		w := weight[c.Code]
		if w <= 0 {
			w = 1
		}
		ws[i] = wc{c.Code, w}
	}
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].w > ws[j].w })
	out := make([][]string, n)
	load := make([]int, n)
	for _, c := range ws {
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		out[best] = append(out[best], c.code)
		load[best] += c.w
	}
	return out
}
