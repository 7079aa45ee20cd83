// Package store implements an immutable, sharded, column-oriented
// measurement store over campaign results. Measurements are ingested
// once — from a live campaign or a dataset export stream — hashed into
// N shards by <VP country, provider>, and each shard keeps columnar
// slices plus pre-sorted per-group RTT vectors and incremental Welford
// summaries. Median, arbitrary-quantile and CDF queries are then
// answered by fanning out over the shards in parallel and k-way merging
// their already-sorted vectors, never re-sorting the full dataset.
//
// The store holds the nearest-datacenter reduction of the campaign (the
// §4.1 view every latency figure shares) plus the per-provider
// interconnection tallies of §6, which is exactly what the query
// service in internal/serve exposes.
package store

import (
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/stats"
)

// Window re-exports the campaign cycle window: queries scoped to a
// half-open [From, To) cycle interval; the zero value selects the whole
// campaign.
type Window = sample.Window

// Options sizes the store.
type Options struct {
	// Shards is the shard count (default 8). More shards raise ingest
	// and query parallelism at the cost of merge fan-in.
	Shards int
	// Partitions is the time-partition count per shard (default 1 — one
	// partition spanning the whole campaign, the pre-longitudinal
	// layout). Each partition covers a contiguous cycle window; windowed
	// queries fan out only to partitions whose zone map overlaps the
	// window.
	Partitions int
	// Cycles is the campaign cycle count the partition windows divide.
	// Zero defaults to Partitions (one cycle per partition); cycles at
	// or past the end clamp into the last partition.
	Cycles int
	// Obs registers the store's instruments: feed ingest counters,
	// seal latency, per-shard row gauges and query merge latency. Nil
	// runs uninstrumented. The store itself never reads the wall clock
	// (it is deterministic-scope; see internal/lint); timing happens
	// through obs.Time, where the clock reads are allowlisted.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 8
	}
	if o.Partitions <= 0 {
		o.Partitions = 1
	}
	if o.Cycles <= 0 {
		o.Cycles = o.Partitions
	}
	return o
}

// partitionSpan is the cycle width each partition covers.
func (o Options) partitionSpan() int {
	span := (o.Cycles + o.Partitions - 1) / o.Partitions
	if span < 1 {
		span = 1
	}
	return span
}

// partitionIndex maps a (possibly trace-decorated) cycle to its
// partition; cycles past the campaign end clamp into the last one.
func (o Options) partitionIndex(cycle int) int {
	i := sample.CampaignCycle(cycle) / o.partitionSpan()
	if i < 0 {
		return 0
	}
	if i >= o.Partitions {
		return o.Partitions - 1
	}
	return i
}

// partitionWindow is the cycle window partition i covers. The first
// partition is unbounded below and the last unbounded above, so the
// partition set tiles the whole time axis.
func (o Options) partitionWindow(i int) Window {
	span := o.partitionSpan()
	w := Window{From: i * span, To: (i + 1) * span}
	if i == 0 {
		w.From = 0
	}
	if i == o.Partitions-1 {
		w.To = 0
	}
	return w
}

// Sample is one nearest-datacenter measurement row: a single RTT from a
// probe in Country towards its closest region, owned by Provider.
type Sample struct {
	Platform  string // "speedchecker" or "atlas"
	Country   string // VP country code
	Continent geo.Continent
	Provider  string // provider of the probe's nearest region
	RTTms     float64
	// Cycle is the normalized campaign cycle the measurement ran on —
	// the time-partitioning key.
	Cycle int
}

// Builder accumulates samples and summaries before sealing them into an
// immutable Store. It is single-writer, like every campaign sink.
type Builder struct {
	opts   Options
	shards []*shardBuilder
	// peering holds the interconnection tallies per time partition.
	peering []map[string]map[pipeline.Class]int
}

// NewBuilder returns an empty builder.
func NewBuilder(opts Options) *Builder {
	opts = opts.withDefaults()
	b := &Builder{
		opts:    opts,
		shards:  make([]*shardBuilder, opts.Shards),
		peering: make([]map[string]map[pipeline.Class]int, opts.Partitions),
	}
	for i := range b.shards {
		b.shards[i] = &shardBuilder{}
	}
	for i := range b.peering {
		b.peering[i] = map[string]map[pipeline.Class]int{}
	}
	return b
}

// shardIndex hashes the <country, provider> pair — the grouping key the
// queries slice by — so one group's rows cluster into few shards while
// distinct groups spread across all of them.
func (b *Builder) shardIndex(country, provider string) int {
	h := fnv.New32a()
	h.Write([]byte(country))
	h.Write([]byte{0xff})
	h.Write([]byte(provider))
	return int(h.Sum32() % uint32(len(b.shards)))
}

// Add ingests one sample.
func (b *Builder) Add(s Sample) {
	b.shards[b.shardIndex(s.Country, s.Provider)].add(s)
}

// AddPeeringCounts folds per-provider interconnection tallies (as
// produced by analysis.InterconnectCounts) into the store by addition.
// Counts without a time axis land in the first partition; the live feed
// uses AddPeeringCountsAt with the trace cycle instead.
func (b *Builder) AddPeeringCounts(counts map[string]map[pipeline.Class]int) {
	b.AddPeeringCountsAt(0, counts)
}

// AddPeeringCountsAt folds interconnection tallies into the partition
// covering the (possibly trace-decorated) cycle.
func (b *Builder) AddPeeringCountsAt(cycle int, counts map[string]map[pipeline.Class]int) {
	foldPeering(b.peering[b.opts.partitionIndex(cycle)], counts)
}

// Seal freezes the builder into an immutable Store: every shard sorts
// its per-group RTT vectors once and finalizes its summaries. The
// builder must not be used afterwards.
func (b *Builder) Seal() *Store {
	defer obs.Time(b.opts.Obs.Histogram("store_seal_ms", obs.LatencyBuckets))()
	partWindows := make([]Window, b.opts.Partitions)
	for i := range partWindows {
		partWindows[i] = b.opts.partitionWindow(i)
	}
	s := &Store{
		shards:      make([]*shard, len(b.shards)),
		peering:     b.peering,
		partWindows: partWindows,
		mMerge:      b.opts.Obs.Histogram("store_query_merge_ms", obs.LatencyBuckets),
		mPick:       b.opts.Obs.Histogram("store_shard_query_ms", obs.LatencyBuckets),
	}
	for i, sb := range b.shards {
		s.shards[i] = sb.seal(b.opts)
	}
	s.summary = s.buildSummary()
	s.summary.Partitions = b.opts.Partitions
	s.summary.Cycles = b.opts.Cycles
	b.opts.Obs.Gauge("store_rows").Set(int64(s.summary.Rows))
	for i, sh := range s.shards {
		//lint:ignore metricname shard count is fixed at seal time, so the label set is bounded by construction
		b.opts.Obs.Gauge("store_shard_rows", "shard", strconv.Itoa(i)).Set(int64(sh.rows))
	}
	return s
}

// FromDataset builds a store from a collected dataset: the
// nearest-datacenter assignment of both platforms plus, when processed
// traceroutes are supplied, the §6 interconnection tallies. It is the
// batch adapter over Feed — one pass over the materialized pings drives
// the same incremental build a live campaign sink would.
func FromDataset(ds *dataset.Store, processed []pipeline.Processed, opts Options) *Store {
	f := NewFeed(nil, opts)
	for i := range ds.Pings {
		if err := f.Ping(ds.Pings[i]); err != nil {
			panic("store: Feed.Ping cannot fail: " + err.Error())
		}
	}
	if len(processed) > 0 {
		f.AddPeeringCounts(analysis.InterconnectCounts(processed))
	}
	return f.Seal()
}

// Store is the sealed, read-only store. All query methods are safe for
// concurrent use.
type Store struct {
	shards []*shard
	// peering holds the per-partition interconnection tallies;
	// partWindows[i] is the cycle window peering[i] (and every shard's
	// partition i) covers.
	peering     []map[string]map[pipeline.Class]int
	partWindows []Window
	summary     Summary
	// mMerge times each gather (shard fan-out + k-way merge); mPick
	// times each shard's window walk (shard.runs). Both are interned at seal so queries
	// pay one atomic observation, no registry lookup.
	mMerge *obs.Histogram
	mPick  *obs.Histogram
}

// Summary describes the sealed store for /v1/statsz and logs.
type Summary struct {
	Shards int `json:"shards"`
	// Partitions is the time-partition count per shard; Cycles is the
	// last cycle of the campaign time axis (exclusive) that the
	// partition windows divide.
	Partitions int            `json:"partitions"`
	Cycles     int            `json:"cycles"`
	Rows       int            `json:"rows"`
	Countries  int            `json:"countries"`
	Providers  int            `json:"providers"`
	Platforms  map[string]int `json:"platform_rows"`
	// Shard balance: the smallest and largest shard row counts.
	MinShardRows int `json:"min_shard_rows"`
	MaxShardRows int `json:"max_shard_rows"`
	// Global RTT summary, merged from per-shard Welford accumulators.
	RTTMeanMs float64 `json:"rtt_mean_ms"`
	RTTMinMs  float64 `json:"rtt_min_ms"`
	RTTMaxMs  float64 `json:"rtt_max_ms"`
}

func (s *Store) buildSummary() Summary {
	sum := Summary{Shards: len(s.shards), Platforms: map[string]int{}}
	countries := map[string]struct{}{}
	providers := map[string]struct{}{}
	var rtt stats.Welford
	for i, sh := range s.shards {
		sum.Rows += sh.rows
		if sh.rows < sum.MinShardRows || i == 0 {
			sum.MinShardRows = sh.rows
		}
		if sh.rows > sum.MaxShardRows {
			sum.MaxShardRows = sh.rows
		}
		for _, p := range sh.parts {
			for g := range p.byCountry {
				countries[g.name] = struct{}{}
			}
		}
		for p := range sh.providers {
			providers[p] = struct{}{}
		}
		for plat, n := range sh.platformRows {
			sum.Platforms[plat] += n
		}
		rtt.Merge(&sh.rtt)
	}
	sum.Countries = len(countries)
	sum.Providers = len(providers)
	sum.RTTMeanMs = rtt.Mean()
	sum.RTTMinMs = rtt.Min()
	sum.RTTMaxMs = rtt.Max()
	return sum
}

// Summary returns the sealed store's description.
func (s *Store) Summary() Summary { return s.summary }

// Countries lists every VP country with samples for the platform,
// sorted.
func (s *Store) Countries(platform string) []string {
	set := map[string]struct{}{}
	for _, sh := range s.shards {
		for _, p := range sh.parts {
			for g := range p.byCountry {
				if g.platform == platform {
					set[g.name] = struct{}{}
				}
			}
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
