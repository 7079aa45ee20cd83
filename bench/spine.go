package main

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/segment"
	"repro/internal/store"
)

// The spine workload is the write path: campaign → bus → feed → seal →
// segment write → mount → first answer. One repetition runs the
// campaigns of every fourth country of the table at scale 0.05, two
// cycles, fault-free (the full sweep costs 8 s on the reference box,
// almost all of it the Atlas fleet, which core always generates at full
// scale; a run has to fit several repetitions). Each repetition ends with
// a hundred mounts of the directory it just wrote. Repetitions continue
// until the run's seconds are spent.
const (
	spineScale      = 0.05
	spineCycles     = 2
	spineShards     = 4
	spinePartitions = 2
	spineStride     = 4 // every fourth country
	spineMinReps    = 3
	spineMounts     = 100 // per repetition: p90 then has ten samples beyond it
	spinePrepares   = 5
	spineTail       = 90.0
	spineLimit      = 10 * time.Millisecond // mount + first answer
	probeTraces     = 20000
)

// timedSink wraps the feed to measure how long the campaign's delivery
// goroutine spends inside it, and keeps the first traceroutes for the
// pipeline probe.
type timedSink struct {
	inner  dataset.Sink
	busy   time.Duration
	traces []dataset.TracerouteRecord
}

func (t *timedSink) Ping(r dataset.PingRecord) error {
	start := time.Now()
	err := t.inner.Ping(r)
	t.busy += time.Since(start)
	return err
}

func (t *timedSink) Trace(r dataset.TracerouteRecord) error {
	if len(t.traces) < probeTraces {
		t.traces = append(t.traces, r)
	}
	start := time.Now()
	err := t.inner.Trace(r)
	t.busy += time.Since(start)
	return err
}

func (t *timedSink) Close() error { return t.inner.Close() }

func largestCountry() string { return geo.AllCountries()[0].Code }

// spineCountries is the campaign's country subset.
func spineCountries(smoke bool) []string {
	var out []string
	for i, c := range geo.AllCountries() {
		if i%spineStride == 0 {
			out = append(out, c.Code)
		}
	}
	if smoke {
		out = out[len(out)/2 : len(out)/2+2] // mid-table: fleets small enough for a unit test, large enough to map
	}
	return out
}

// mountOnce opens a written segment directory, validates every file
// and asks the first figure: the time from "files on disk" to "first
// answer". The files were just written, so reads come from page cache.
func mountOnce(dir string) (open, first time.Duration, err error) {
	start := time.Now()
	rd, err := segment.Open(dir, segment.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer rd.Close()
	if err := checkSegmentFiles(dir, rd.Summary().Shards); err != nil {
		return 0, 0, err
	}
	open = time.Since(start)
	start = time.Now()
	if len(rd.LatencyMap(defaultMinSamples)) == 0 {
		return 0, 0, fmt.Errorf("bench: mounted segment answered an empty latency-map")
	}
	return open, time.Since(start), nil
}

func runSpine(seed int64, sz sizing, traced bool) (res result, err error) {
	res = result{workload: "spine", metrics: map[string]float64{}}
	ctx := context.Background()
	reg := obs.NewRegistry()
	cfg := core.Config{Seed: seed, Scale: spineScale, Cycles: spineCycles, Obs: reg}

	var prepares []float64
	var setup *core.Setup
	for i := 0; i < spinePrepares; i++ {
		t := time.Now()
		if setup, err = core.Prepare(cfg); err != nil {
			return res, err
		}
		prepares = append(prepares, time.Since(t).Seconds())
	}
	countries := spineCountries(sz.smoke)
	var rec *recorder
	if traced {
		rec = newRecorder()
		rec.on.Store(true)
	}

	var recordsPerS, allocMB, campaignS, sealMs, writeMs, openMs, firstMs, busyS []float64
	var records, retries, lost int
	var digest, dir string
	var segBytes int64
	var rows int
	var sink *timedSink
	var mountMs, mountP50, mountTail, mountOK []float64
	mounts := spineMounts
	if sz.smoke {
		mounts = minBeyond
	}
	stalls := reg.Counter("bus_backpressure_stalls_total")
	defer func() {
		if dir != "" {
			os.RemoveAll(dir)
		}
	}()
	began := time.Now()
	for rep := 0; rep < spineMinReps || time.Since(began).Seconds() < sz.seconds; rep++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		if dir, err = scratchDir("spine-"); err != nil {
			return res, err
		}
		alloc := totalAlloc()
		repSpan := spanTimer(rec, rep, 0, "spine.rep")
		start := time.Now()

		feed := store.NewFeed(pipeline.NewProcessor(setup.World), store.Options{
			Shards: spineShards, Partitions: spinePartitions, Cycles: spineCycles, Obs: reg,
		})
		var into dataset.Sink = feed
		if traced {
			sink = &timedSink{inner: feed}
			into = sink
		}
		end := spanTimer(rec, rep, 1, "measure.campaign")
		_, sc, at, cerr := setup.RunCampaignsOver(ctx, countries, into, sample.NewCounterSink(reg))
		if cerr != nil {
			return res, cerr
		}
		campaignS = append(campaignS, end()/1e3)
		end = spanTimer(rec, rep, 2, "store.seal")
		st := feed.SealContext(ctx)
		sealMs = append(sealMs, end())
		end = spanTimer(rec, rep, 3, "segment.write")
		if err := segment.Write(dir, st); err != nil {
			return res, err
		}
		writeMs = append(writeMs, end())
		end = spanTimer(rec, rep, 4, "segment.mount")
		open, first, err := mountOnce(dir)
		if err != nil {
			return res, err
		}
		end()
		total := time.Since(start)
		repSpan()
		openMs = append(openMs, float64(open)/1e6)
		firstMs = append(firstMs, float64(first)/1e6)

		records = sc.Pings + at.Pings + sc.Traceroutes + at.Traceroutes
		retries = sc.Retries + at.Retries
		lost = sc.Lost + at.Lost + sc.TracesLost + at.TracesLost
		recordsPerS = append(recordsPerS, float64(records)/total.Seconds())
		allocMB = append(allocMB, float64(totalAlloc()-alloc)/(1<<20))
		if traced {
			busyS = append(busyS, sink.busy.Seconds())
		}

		// Correctness, off the clock: every repetition seals the same
		// store, and the mounted files hold exactly that store.
		res.attempted += records + lost
		res.failed += lost
		if d := st.Digest(); digest == "" {
			digest = d
		} else if d != digest {
			res.fail("repetition %d sealed store %s, the first sealed %s", rep, d, digest)
		}
		exactRd, err := segment.Open(dir, segment.Options{Exact: true})
		if err != nil {
			return res, err
		}
		if !reflect.DeepEqual(exactRd.LatencyMap(defaultMinSamples), st.LatencyMap(defaultMinSamples)) {
			res.fail("repetition %d: the mounted segment's exact latency-map differs from the sealed store's", rep)
		}
		exactRd.Close()
		if segBytes, err = segmentBytes(dir); err != nil {
			return res, err
		}
		rows = st.Summary().Rows

		// Mounts: open + validate + first answer, again and again on the
		// directory just written. One repetition's mounts are one window.
		var ms []float64
		within := 0
		runtime.GC() // every window starts from the same heap: the campaign's garbage is gone
		for i := 0; i < mounts; i++ {
			open, first, err := mountOnce(dir)
			res.attempted++
			if err != nil {
				res.fail("repetition %d mount %d: %v", rep, i, err)
				continue
			}
			ms = append(ms, float64(open+first)/1e6)
			if open+first <= spineLimit {
				within++
			}
		}
		mountMs = append(mountMs, ms...)
		mountP50 = append(mountP50, median(ms))
		mountTail = append(mountTail, percentile(ms, spineTail))
		mountOK = append(mountOK, ratio(within, mounts))
	}

	if !traced {
		res.metrics["setup_s"] = median(prepares)
		// As on the serve workloads, a timing is the best window's: one
		// repetition is one window.
		res.metrics["lat_p50_ms"] = slices.Min(mountP50)
		res.metrics["lat_tail_ms"] = slices.Min(mountTail)
		res.metrics["slo_ok_ratio"] = slices.Max(mountOK)
		res.metrics["capacity_rps"] = slices.Max(recordsPerS)
		res.metrics["alloc_mb"] = median(allocMB)
		res.notes = append(res.notes,
			fmt.Sprintf("%d repetitions of %d records over %d countries; capacity_rps is records per second from campaign start to first answer from the mounted segment, fastest repetition (median %.0f)", len(recordsPerS), records, len(countries), median(recordsPerS)),
			fmt.Sprintf("each repetition ends with %d mounts (open + validate + first latency-map) of its directory, page cache warm; lat_p50_ms, lat_tail_ms (p%g) and slo_ok_ratio (limit %v) are the best repetition's; all %d mounts: p50 %.3f ms, p%g %.3f ms",
				mounts, spineTail, spineLimit, len(mountMs), median(mountMs), spineTail, percentile(mountMs, spineTail)))
		return res, nil
	}

	pm := res.metrics
	pm["fail_ratio"] = ratio(res.failed, res.attempted)
	pm["core.prepare_ms"] = median(prepares) * 1e3
	pm["measure.campaign_s"] = median(campaignS)
	pm["measure.records"] = float64(records)
	pm["measure.retries"] = float64(retries)
	pm["measure.lost"] = float64(lost)
	pm["store.feed_busy_s"] = median(busyS)
	pm["store.feed_busy_share"] = median(busyS) / median(campaignS)
	pm["sample.bus_stalls"] = float64(stalls.Load()) / float64(len(campaignS))
	pm["sample.bus_high_water"] = float64(reg.Gauge("bus_queue_high_water").Load())
	pm["store.seal_ms"] = median(sealMs)
	pm["segment.write_ms"] = median(writeMs)
	pm["segment.open_ms"] = median(openMs)
	pm["segment.first_query_ms"] = median(firstMs)
	pm["segment.bytes"] = float64(segBytes)
	pm["seg_bytes_per_row"] = float64(segBytes) / float64(max(rows, 1))
	proc := pipeline.NewProcessor(setup.World)
	start := time.Now()
	for i := range sink.traces {
		proc.Process(&sink.traces[i])
	}
	pm["pipeline.process_us_per_trace"] = float64(time.Since(start)) / 1e3 / float64(max(len(sink.traces), 1))
	res.notes = append(res.notes, fmt.Sprintf("%d spans in %s/trace-spine.json", len(rec.spans), outDir))
	return res, rec.write("spine")
}

// spanTimer starts a timer; the returned func stops it, records a span
// when rec is set (slot 0 is the repetition's root, the others its
// children) and returns the elapsed milliseconds.
func spanTimer(rec *recorder, rep, slot int, name string) func() float64 {
	start := time.Now()
	return func() float64 {
		d := time.Since(start)
		if rec != nil {
			s := span{ID: int64(rep)*8 + int64(slot) + 1, Req: rep, Name: name,
				StartNs: int64(start.Sub(rec.epoch)), EndNs: int64(start.Sub(rec.epoch) + d)}
			if slot > 0 {
				s.Parent = int64(rep)*8 + 1
			}
			rec.add(s)
		}
		return float64(d) / 1e6
	}
}
