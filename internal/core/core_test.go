package core

import (
	"bytes"
	"context"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/pipeline"
	"repro/internal/store"
)

var (
	studyOnce sync.Once
	study     *Study
	results   Results
)

func testStudy(t *testing.T) (*Study, Results) {
	t.Helper()
	studyOnce.Do(func() {
		s, err := Run(context.Background(), Config{Seed: 1, Scale: 0.03, Cycles: 3, TargetsPerProbe: 6})
		if err != nil {
			panic(err)
		}
		study = s
		results = s.Analyze(AnalyzeConfig{MinMapSamples: 6, MinCvSamples: 4, MinCaseSamples: 4})
	})
	return study, results
}

func TestEndToEndStudy(t *testing.T) {
	s, r := testStudy(t)
	np, nt := s.Store.Len()
	if np == 0 || nt == 0 {
		t.Fatalf("study collected nothing: %d pings, %d traces", np, nt)
	}
	if len(s.Processed) != nt {
		t.Errorf("processed %d of %d traces", len(s.Processed), nt)
	}
	if len(r.LatencyMap) < 40 {
		t.Errorf("latency map countries = %d", len(r.LatencyMap))
	}
	if len(r.ContinentCDFs) != 6 {
		t.Errorf("continent CDFs = %d", len(r.ContinentCDFs))
	}
	if len(r.Interconnections) != 9 {
		t.Errorf("Fig 10 providers = %d", len(r.Interconnections))
	}
	if len(r.GermanyUK.Matrix.Rows) == 0 {
		t.Error("Fig 12a empty")
	}
	if r.Thresholds.Countries == 0 || r.Thresholds.UnderHRT == 0 {
		t.Errorf("thresholds degenerate: %+v", r.Thresholds)
	}
	if s.SCStats.Pings == 0 || s.AtlasStats.Pings == 0 {
		t.Error("campaign stats empty")
	}
	if s.SC.Len() == 0 || s.Atlas.Len() == 0 {
		t.Errorf("fleets: %d Speedchecker, %d Atlas probes", s.SC.Len(), s.Atlas.Len())
	}
	if got := s.SCStats.Pings + s.AtlasStats.Pings; got != np {
		t.Errorf("campaign stats count %d pings, store holds %d", got, np)
	}
}

func TestReportRendering(t *testing.T) {
	s, r := testStudy(t)
	var buf bytes.Buffer
	s.WriteReport(&buf, r)
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Figure 3", "Figure 4", "Figure 5", "Figure 6",
		"Figure 7", "Figure 8", "Figure 9", "Figure 10", "Figure 11",
		"Figure 12", "Figure 13", "Figure 15", "Figure 16",
		"Figure 17", "Figure 18", "Figure 19",
		"takeaway", "user-population coverage", "geoDensity",
		"Provider consistency", "Edge what-if",
		"Deutsche Telekom", "MSFT",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(out) < 4000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}

func TestExportDataset(t *testing.T) {
	s, _ := testStudy(t)
	var pings, traces bytes.Buffer
	if err := s.ExportDataset(&pings, &traces); err != nil {
		t.Fatal(err)
	}
	if pings.Len() == 0 || traces.Len() == 0 {
		t.Error("empty export")
	}
	// Header row plus one line per record.
	np, nt := s.Store.Len()
	if gotLines := strings.Count(pings.String(), "\n"); gotLines != np+1 {
		t.Errorf("ping CSV lines = %d, want %d", gotLines, np+1)
	}
	if gotLines := strings.Count(traces.String(), "\n"); gotLines != nt {
		t.Errorf("trace JSONL lines = %d, want %d", gotLines, nt)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{Seed: 1, Scale: 0.01}); err == nil {
		t.Fatal("cancelled run should fail")
	}
}

func TestDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale == 0 || c.Cycles == 0 || c.TargetsPerProbe == 0 {
		t.Errorf("config defaults missing: %+v", c)
	}
	a := AnalyzeConfig{}.withDefaults()
	if a.MinMapSamples == 0 || a.MinCvSamples == 0 || a.MinCaseSamples == 0 || a.MinMatchedGroups == 0 {
		t.Errorf("analyze defaults missing: %+v", a)
	}
}

func TestFromStoreReanalysis(t *testing.T) {
	s, r := testStudy(t)
	// Round-trip the dataset through the published formats, rebuild a
	// study around it, and check the analyses agree.
	var pings, traces bytes.Buffer
	if err := s.ExportDataset(&pings, &traces); err != nil {
		t.Fatal(err)
	}
	loadedPings, err := readPings(&pings)
	if err != nil {
		t.Fatal(err)
	}
	loadedTraces, err := readTraces(&traces)
	if err != nil {
		t.Fatal(err)
	}
	re, err := FromStore(Config{Seed: s.Config.Seed, Scale: s.Config.Scale},
		dataset.FromRecords(loadedPings, loadedTraces))
	if err != nil {
		t.Fatal(err)
	}
	r2 := re.Analyze(AnalyzeConfig{MinMapSamples: 6, MinCvSamples: 4, MinCaseSamples: 4})
	if len(r2.LatencyMap) != len(r.LatencyMap) {
		t.Fatalf("re-analysis map: %d vs %d countries", len(r2.LatencyMap), len(r.LatencyMap))
	}
	for i := range r.LatencyMap {
		a, b := r.LatencyMap[i], r2.LatencyMap[i]
		if a.Country != b.Country {
			t.Fatalf("map entry %d differs: %+v vs %+v", i, a, b)
		}
		// The CSV export quantizes RTTs to microseconds, which can flip
		// nearest-region ties for co-located datacenters; allow a small
		// drift.
		if diff := a.MedianMs - b.MedianMs; diff < -0.5 || diff > 0.5 {
			t.Fatalf("%s median drifted: %v vs %v", a.Country, a.MedianMs, b.MedianMs)
		}
	}
	// Peering classification must survive the round trip exactly.
	s1 := r.Interconnections
	s2 := r2.Interconnections
	if len(s1) != len(s2) {
		t.Fatalf("interconnections: %d vs %d providers", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].Provider != s2[i].Provider || s1[i].N != s2[i].N {
			t.Fatalf("interconnect row %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
	}
}

func readPings(r io.Reader) ([]dataset.PingRecord, error)        { return dataset.ReadPingsCSV(r) }
func readTraces(r io.Reader) ([]dataset.TracerouteRecord, error) { return dataset.ReadTracesJSONL(r) }

// TestRunCampaignsStreaming drives one prepared study into a
// materializing StoreSink and an incremental store.Feed at once, and
// requires the sealed feed to answer queries exactly like the batch
// store built from the materialized records of the same stream.
func TestRunCampaignsStreaming(t *testing.T) {
	setup, err := Prepare(Config{Seed: 2, Scale: 0.02, Cycles: 1, TargetsPerProbe: 4})
	if err != nil {
		t.Fatal(err)
	}
	if setup.World == nil || setup.SC == nil || setup.Atlas == nil || setup.Sim == nil {
		t.Fatal("Prepare left fields unset")
	}
	if setup.Plan != nil || setup.AtlasSim != setup.Sim {
		t.Error("fault-free setup should share one simulator and carry no plan")
	}

	materialized := dataset.NewStoreSink(nil)
	feed := store.NewFeed(pipeline.NewProcessor(setup.World), store.Options{Shards: 4})
	spill, scStats, atStats, err := setup.RunCampaigns(context.Background(), materialized, feed)
	if err != nil {
		t.Fatal(err)
	}
	if scStats.SinkDegraded || atStats.SinkDegraded {
		t.Fatalf("healthy sinks degraded: sc %+v, atlas %+v", scStats, atStats)
	}
	if np, nt := spill.Len(); np != 0 || nt != 0 {
		t.Fatalf("spill store should be empty: %d pings, %d traces", np, nt)
	}
	ds := materialized.Store
	if np, nt := ds.Len(); np == 0 || nt == 0 {
		t.Fatalf("nothing streamed: %d pings, %d traces", np, nt)
	}

	sealed := feed.Seal()
	batch := store.FromDataset(ds, pipeline.NewProcessor(setup.World).ProcessAll(ds), store.Options{Shards: 4})
	if got, want := sealed.LatencyMap(6), batch.LatencyMap(6); !reflect.DeepEqual(got, want) {
		t.Error("streamed feed's LatencyMap diverges from batch")
	}
	if got, want := sealed.PeeringShares(), batch.PeeringShares(); !reflect.DeepEqual(got, want) {
		t.Error("streamed feed's PeeringShares diverge from batch")
	}
	if got, want := sealed.Summary(), batch.Summary(); !reflect.DeepEqual(got, want) {
		t.Errorf("streamed feed's Summary diverges from batch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestPrepareFaultProfile checks a plan splits the simulators.
func TestPrepareFaultProfile(t *testing.T) {
	setup, err := Prepare(Config{Seed: 1, FaultProfile: "flaky-wireless"})
	if err != nil {
		t.Fatal(err)
	}
	if setup.Plan == nil {
		t.Fatal("profile produced no plan")
	}
	if setup.AtlasSim == setup.Sim {
		t.Error("atlas must run on a fault-free simulator")
	}
	if setup.Sim.Faults == nil {
		t.Error("speedchecker simulator lost the injector")
	}
}
