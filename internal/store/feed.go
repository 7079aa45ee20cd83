package store

import (
	"context"
	"sort"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Feed is a dataset.Sink that builds the sealed columnar store
// incrementally while a campaign runs (or while an export streams
// through the codec cursors): pings accumulate into the per-platform
// nearest-datacenter collectors, traces are classified on arrival and
// folded into the §6 interconnection tallies. Nothing is materialized
// into a dataset.Store — peak memory is the grouped sample lists, the
// same order as the sealed store itself.
//
// Like every sink, a Feed is single-writer: the campaign collector (or
// the bus delivery goroutine) owns Ping/Trace/Close. Call Seal once the
// stream has ended; the feed must not be used afterwards.
type Feed struct {
	opts   Options
	sc     *analysis.NearestCollector
	atlas  *analysis.NearestCollector
	region map[string]string // region → provider, learned from pings
	proc   *pipeline.Processor
	// counts holds the interconnection tallies per time partition: a
	// trace's tally lands in the partition covering its cycle, so each
	// partition's peering view is sealed the moment its window closes.
	counts []map[string]map[pipeline.Class]int
	pings  int
	traces int

	// Interned ingest counters (working even without a registry).
	mPings  *obs.Counter
	mTraces *obs.Counter
}

// NewFeed returns an empty feed. proc classifies incoming traceroutes
// for the peering tallies; pass nil to ignore traces (ping-only store).
func NewFeed(proc *pipeline.Processor, opts Options) *Feed {
	opts = opts.withDefaults()
	counts := make([]map[string]map[pipeline.Class]int, opts.Partitions)
	for i := range counts {
		counts[i] = map[string]map[pipeline.Class]int{}
	}
	return &Feed{
		opts:    opts,
		sc:      analysis.NewNearestCollector("speedchecker"),
		atlas:   analysis.NewNearestCollector("atlas"),
		region:  map[string]string{},
		proc:    proc,
		counts:  counts,
		mPings:  opts.Obs.Counter("store_feed_pings_total"),
		mTraces: opts.Obs.Counter("store_feed_traces_total"),
	}
}

// Ping implements dataset.Sink.
func (f *Feed) Ping(r dataset.PingRecord) error {
	f.pings++
	f.mPings.Inc()
	f.region[r.Target.Region] = r.Target.Provider
	f.sc.Add(&r)
	f.atlas.Add(&r)
	return nil
}

// Trace implements dataset.Sink. The record is copied to the heap
// because the pipeline retains a pointer to it.
func (f *Feed) Trace(r dataset.TracerouteRecord) error {
	f.traces++
	f.mTraces.Inc()
	if f.proc == nil {
		return nil
	}
	rec := r
	p := f.proc.Process(&rec)
	analysis.CountInterconnect(f.counts[f.opts.partitionIndex(r.Cycle)], &p)
	return nil
}

// Close implements dataset.Sink; the feed keeps no buffers to flush.
func (f *Feed) Close() error { return nil }

// Len returns the (pings, traces) counts seen so far.
func (f *Feed) Len() (int, int) { return f.pings, f.traces }

// AddPeeringCounts folds pre-computed interconnection tallies in — the
// batch adapter path, where traces were already classified and the
// time axis is gone; the tallies land in the first partition.
func (f *Feed) AddPeeringCounts(counts map[string]map[pipeline.Class]int) {
	foldPeering(f.counts[0], counts)
}

// Seal finalizes both nearest-DC assignments and freezes everything
// into an immutable Store. Probes are ingested in sorted order so the
// sealed store is deterministic for a given stream.
func (f *Feed) Seal() *Store { return f.SealContext(context.Background()) }

// SealContext is Seal under a tracing context: when ctx carries an
// obs.Tracer the finalize-sort-freeze pass records a "store.seal" span,
// parented on whatever span the caller (the campaign runner) holds.
func (f *Feed) SealContext(ctx context.Context) *Store {
	_, span := obs.StartSpan(ctx, "store.seal")
	defer span.End()
	b := NewBuilder(f.opts)
	for _, pl := range []struct {
		name string
		c    *analysis.NearestCollector
	}{{"speedchecker", f.sc}, {"atlas", f.atlas}} {
		na := pl.c.Finalize()
		probes := make([]string, 0, len(na.Samples))
		for probe := range na.Samples {
			probes = append(probes, probe)
		}
		sort.Strings(probes)
		for _, probe := range probes {
			vp := na.Meta[probe]
			prov := f.region[na.Region[probe]]
			cycles := na.Cycles[probe]
			for i, rtt := range na.Samples[probe] {
				b.Add(Sample{
					Platform: pl.name, Country: vp.Country,
					Continent: vp.Continent, Provider: prov, RTTms: rtt,
					Cycle: int(cycles[i]),
				})
			}
		}
	}
	for cycle0, counts := range f.counts {
		// Partition indexes map 1:1 between feed and builder — the
		// options are shared — so replaying each partition's tallies at
		// its window start lands them in the same partition.
		b.AddPeeringCountsAt(cycle0*f.opts.partitionSpan(), counts)
	}
	return b.Seal()
}
