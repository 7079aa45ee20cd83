package store

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/probes"
	"repro/internal/sample"
	"repro/internal/world"
)

// TestFeedMatchesBatchFromCampaign is the spine's end-to-end
// equivalence proof: one live campaign fans out through a bounded bus
// to a materializing StoreSink, a CSV/JSONL FileSink and incremental
// Feeds at shard counts 1/4/16 — and every sealed feed must answer all
// store queries bit-identically to the legacy batch path
// (materialize, then FromDataset), as must a feed rebuilt from the
// exported files through the codec cursors.
func TestFeedMatchesBatchFromCampaign(t *testing.T) {
	w := world.MustBuild(world.Config{Seed: 1})
	sim := netsim.New(w)
	sc := probes.GenerateSpeedchecker(w, probes.Config{Seed: 1, Scale: 0.02})
	at := probes.GenerateAtlas(w, probes.Config{Seed: 1, Scale: 0.3})
	cfg := measure.Config{
		Seed: 1, Cycles: 2, ProbesPerCountry: 12, TargetsPerProbe: 4,
		MinProbesPerCountry: 1, RequestsPerMinute: 1000, Workers: 4,
		BothPingProtocols: measure.FlagOn, Traceroutes: true, NeighborContinentTargets: true,
	}

	shardCounts := []int{1, 4, 16}
	feeds := make([]*Feed, len(shardCounts))
	for i, n := range shardCounts {
		feeds[i] = NewFeed(pipeline.NewProcessor(w), Options{Shards: n})
	}
	storeSink := dataset.NewStoreSink(nil)
	var pingsCSV, tracesJSONL bytes.Buffer
	fileSink := dataset.NewFileSink(&pingsCSV, &tracesJSONL)

	// One FileSink shared across both campaigns (a second would emit a
	// second CSV header), each campaign driving its own bus over the
	// same sinks. A small buffer exercises backpressure.
	sinks := []sample.Sink{storeSink, fileSink}
	for _, f := range feeds {
		sinks = append(sinks, f)
	}
	runCampaign := func(fleet *probes.Fleet, cfg measure.Config) {
		t.Helper()
		cfg.Sink = sample.NewBus(sample.BusOptions{Buffer: 64}, sinks...)
		campaign, err := measure.New(sim, fleet, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := campaign.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.SinkDegraded || st.Spilled > 0 {
			t.Fatalf("campaign degraded its sink: %+v", st)
		}
	}
	runCampaign(sc, cfg)
	atCfg := cfg
	atCfg.ProbesPerCountry = 0
	atCfg.Cycles = 1
	runCampaign(at, atCfg)

	ds := storeSink.Store
	if np, nt := ds.Len(); np == 0 || nt == 0 {
		t.Fatalf("materialized store is empty: %d pings, %d traces", np, nt)
	}
	processed := pipeline.NewProcessor(w).ProcessAll(ds)

	check := func(t *testing.T, st *Store, ds *dataset.Store, processed []pipeline.Processed, shards int) {
		t.Helper()
		batch := FromDataset(ds, processed, Options{Shards: shards})
		if got, want := st.LatencyMap(10), batch.LatencyMap(10); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: LatencyMap diverges from batch", shards)
		}
		for _, platform := range []string{"speedchecker", "atlas"} {
			if got, want := st.ContinentCDFs(platform), batch.ContinentCDFs(platform); !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d: ContinentCDFs(%s) diverges from batch", shards, platform)
			}
			if got, want := st.Countries(platform), batch.Countries(platform); !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d: Countries(%s) diverges from batch", shards, platform)
			}
		}
		if got, want := st.PlatformDiff(), batch.PlatformDiff(); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: PlatformDiff diverges from batch", shards)
		}
		if got, want := st.PeeringShares(), batch.PeeringShares(); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: PeeringShares diverges from batch:\ngot  %+v\nwant %+v", shards, got, want)
		}
		if got, want := st.CountrySamples("speedchecker"), batch.CountrySamples("speedchecker"); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: CountrySamples diverges from batch", shards)
		}
	}

	for i, n := range shardCounts {
		sealed := feeds[i].Seal()
		check(t, sealed, ds, processed, n)
		if p, tr := feeds[i].Len(); p == 0 || tr == 0 {
			t.Fatalf("feed saw %d pings, %d traces", p, tr)
		}
	}

	// The exported files, re-ingested through the codec cursors, must
	// seal to the same store the batch loader builds from the same files
	// — the `cloudy serve` cold-start path. (The CSV codec rounds RTTs
	// to 6 decimals, so the comparison baseline is the re-decoded
	// records, not the live ones.)
	fromExport := NewFeed(pipeline.NewProcessor(w), Options{Shards: 4})
	if err := dataset.ScanPings(bytes.NewReader(pingsCSV.Bytes()), fromExport.Ping); err != nil {
		t.Fatal(err)
	}
	if err := dataset.ScanTraces(bytes.NewReader(tracesJSONL.Bytes()), fromExport.Trace); err != nil {
		t.Fatal(err)
	}
	pingsRT, err := dataset.ReadPingsCSV(bytes.NewReader(pingsCSV.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tracesRT, err := dataset.ReadTracesJSONL(bytes.NewReader(tracesJSONL.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dsRT := dataset.FromRecords(pingsRT, tracesRT)
	check(t, fromExport.Seal(), dsRT, pipeline.NewProcessor(w).ProcessAll(dsRT), 4)
}

// TestFeedMatchesBatchOnFixture covers the synthetic fixture too, where
// the nearest-DC structure is hand-built and easy to reason about.
func TestFeedMatchesBatchOnFixture(t *testing.T) {
	ds, processed := fixtureDataset(t)
	for _, shards := range []int{1, 4, 16} {
		f := NewFeed(nil, Options{Shards: shards})
		for i := range ds.Pings {
			if err := f.Ping(ds.Pings[i]); err != nil {
				t.Fatal(err)
			}
		}
		f.AddPeeringCounts(analysis.InterconnectCounts(processed))
		st := f.Seal()
		batch := FromDataset(ds, processed, Options{Shards: shards})
		if got, want := st.LatencyMap(10), batch.LatencyMap(10); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: LatencyMap diverges", shards)
		}
		if got, want := st.PeeringShares(), batch.PeeringShares(); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: PeeringShares diverge", shards)
		}
		if got, want := st.Summary(), batch.Summary(); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: Summary diverges:\ngot  %+v\nwant %+v", shards, got, want)
		}
	}
}
