package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/asn"
	"repro/internal/cloud"
	"repro/internal/edge"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

func box(vals ...float64) stats.FiveNum {
	s, _ := stats.Summarize(vals)
	return s
}

func TestTable1Renders(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf, cloud.NewInventory())
	out := buf.String()
	for _, want := range []string{"Amazon EC2", "Private", "Semi", "Public", "195", "IBM Cloud"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	lines := strings.Count(out, "\n")
	if lines != 13 { // title + header + 10 providers + total
		t.Errorf("Table 1 lines = %d", lines)
	}
}

func TestLatencyMapRenders(t *testing.T) {
	var buf bytes.Buffer
	LatencyMap(&buf, []analysis.CountryLatency{
		{Country: "DE", Continent: geo.EU, MedianMs: 34.5, Band: analysis.Band30to60, Samples: 120},
		{Country: "EG", Continent: geo.AF, MedianMs: 280, Band: analysis.BandOver250, Samples: 45},
	})
	out := buf.String()
	if !strings.Contains(out, "DE") || !strings.Contains(out, ">250 ms") {
		t.Errorf("map output wrong:\n%s", out)
	}
	if !strings.Contains(out, "takeaway: 2 countries; <MTP 0, <HPL 1, <HRT 1") {
		t.Errorf("takeaway wrong:\n%s", out)
	}
}

func TestFigureRenderersNonEmpty(t *testing.T) {
	cdf, _ := stats.NewCDF([]float64{10, 20, 30, 200})
	checks := []struct {
		name string
		fn   func(*bytes.Buffer)
		want string
	}{
		{"fig4", func(b *bytes.Buffer) {
			ContinentCDFs(b, []analysis.ContinentDistribution{
				{Continent: geo.EU, CDF: cdf, UnderMTP: 0.25, UnderHPL: 0.75, UnderHRT: 1, N: 4},
			}, 4)
		}, "75.0%"},
		{"fig5", func(b *bytes.Buffer) {
			PlatformDiffs(b, []analysis.PlatformDiff{
				{Continent: geo.AF, Diffs: []float64{5, 10, 20}, AtlasFasterShare: 1, NSC: 3, NAtlas: 3},
			})
		}, "100%"},
		{"fig6", func(b *bytes.Buffer) {
			InterContinental(b, []analysis.InterContinentBox{
				{Country: "EG", TargetContinent: geo.EU, Box: box(60, 70, 80)},
			})
		}, "EG"},
		{"fig7", func(b *bytes.Buffer) {
			LastMile(b, []analysis.LastMileImpact{
				{Continent: geo.EU, Category: analysis.CatHomeUserISP, SharePct: box(40, 50), AbsMs: box(20, 25), N: 2},
			}, []analysis.LastMileImpact{
				{Category: analysis.CatCell, SharePct: box(45), AbsMs: box(23), N: 1},
			}, "Figure 7")
		}, "Global"},
		{"fig8", func(b *bytes.Buffer) {
			CvGroups(b, []analysis.CvGroup{
				{Continent: geo.AS, Category: analysis.CatCell, Cvs: []float64{0.4, 0.6}, MedianCv: 0.5},
			}, "Figure 8")
		}, "0.50"},
		{"fig9", func(b *bytes.Buffer) {
			CvGroups(b, []analysis.CvGroup{
				{Country: "JP", Category: analysis.CatHomeUserISP, Cvs: []float64{0.5}, MedianCv: 0.5},
			}, "Figure 9")
		}, "JP"},
		{"fig10", func(b *bytes.Buffer) {
			Interconnections(b, []analysis.InterconnectShare{
				{Provider: "GCP", DirectPct: 80, OneASPct: 15, MultiASPct: 5, N: 1000},
			})
		}, "GCP"},
		{"fig11", func(b *bytes.Buffer) {
			Pervasiveness(b, []analysis.PervasivenessRow{
				{Provider: "MSFT", PerContinent: map[geo.Continent]float64{geo.EU: 0.66}, N: 10},
			})
		}, "0.66"},
		{"fig15", func(b *bytes.Buffer) {
			Protocols(b, []analysis.ProtocolComparison{
				{Continent: geo.EU, TCP: box(30), ICMP: box(31), MedianGapPct: 2.1, Pairs: 50},
			})
		}, "2.1%"},
		{"fig16", func(b *bytes.Buffer) {
			Matched(b, []analysis.MatchedDiff{
				{Continent: geo.NA, Diffs: []float64{3, 6}, MatchedGroups: 4},
			})
		}, "100%"},
	}
	for _, c := range checks {
		var buf bytes.Buffer
		c.fn(&buf)
		if !strings.Contains(buf.String(), c.want) {
			t.Errorf("%s: output missing %q:\n%s", c.name, c.want, buf.String())
		}
	}
}

func TestCaseStudyRenders(t *testing.T) {
	var buf bytes.Buffer
	m := analysis.PeeringMatrix{
		VPCountry: "DE", DCCountry: "GB",
		Rows: []analysis.ISPRow{{
			ISP: asn.Number(3320), Name: "Deutsche Telekom", N: 100,
			Cells: map[string]analysis.MatrixCell{
				"AMZN": {Class: pipeline.ClassDirect, Pct: 97, N: 40},
				"LIN":  {Class: pipeline.ClassPrivate, Pct: 88, N: 12},
			},
		}},
	}
	lat := []analysis.PeeringLatency{{
		Provider: "AMZN", Direct: box(30, 32, 35), Transit: box(33, 36, 40),
		NDirect: 3, NTransit: 3,
	}}
	CaseStudy(&buf, m, lat, "Figure 12 (DE→UK)")
	out := buf.String()
	for _, want := range []string{"Deutsche Telekom", "direct 97%", "1 AS 88%", "AMZN", "transit"} {
		if !strings.Contains(out, want) {
			t.Errorf("case study missing %q:\n%s", want, out)
		}
	}
}

func TestDensityAndStatsRender(t *testing.T) {
	var buf bytes.Buffer
	Density(&buf, analysis.FleetDensity{
		Platform: "speedchecker", Total: 100,
		PerContinent: map[geo.Continent]int{geo.EU: 60, geo.AS: 40},
		PerCountry:   []analysis.CountryDensity{{Country: "DE", Probes: 30}, {Country: "JP", Probes: 20}},
	}, 1)
	if !strings.Contains(buf.String(), "DE:30") || strings.Contains(buf.String(), "JP:20") {
		t.Errorf("topN cut wrong:\n%s", buf.String())
	}
	buf.Reset()
	CampaignStats(&buf, "test", measure.Stats{
		Requests: 5, Pings: 10, Traceroutes: 20, CountriesCycled: 3,
		SamplesPerCountry: map[string]int{"DE": 5000},
	})
	if !strings.Contains(buf.String(), "confidence bound: 1") {
		t.Errorf("stats render wrong:\n%s", buf.String())
	}
	buf.Reset()
	Rule(&buf, "Title")
	if !strings.Contains(buf.String(), "=====") {
		t.Errorf("rule wrong: %q", buf.String())
	}
}

func TestDataQualityRenders(t *testing.T) {
	// A clean campaign collapses to one line.
	var buf bytes.Buffer
	DataQuality(&buf, "clean", measure.Stats{Attempts: 10, Pings: 10})
	if !strings.Contains(buf.String(), "clean run: 10 attempts") {
		t.Errorf("clean render wrong:\n%s", buf.String())
	}
	// A faulted campaign itemizes its losses.
	buf.Reset()
	DataQuality(&buf, "chaos", measure.Stats{
		Attempts: 120, Pings: 100, Retries: 15, Lost: 5, TimedOut: 8,
		Traceroutes: 180, TracesLost: 20, ProbeDropouts: 4,
		Quarantined: 2, QuarantineSkipped: 3,
		SinkRetries: 6, SinkDegraded: true, Spilled: 40,
	})
	out := buf.String()
	for _, want := range []string{
		"120 attempts", "100 delivered", "15 retried", "5 lost", "8 timed out",
		"180 delivered, 20 lost", "4 dropped out", "2 quarantine trips",
		"6 transient errors retried", "40 records spilled",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("data quality render missing %q:\n%s", want, out)
		}
	}
	// A multi-sink campaign prints the bus ledger even on a clean run
	// (the high-water mark sizes the next campaign's buffer) — and a
	// single-sink run, which never engages the bus, stays silent.
	buf.Reset()
	DataQuality(&buf, "fanout", measure.Stats{
		Attempts: 10, Pings: 10, BusHighWater: 7, BusStalls: 2, BusDropped: 1,
	})
	if !strings.Contains(buf.String(), "fan-out bus: high-water 7, 2 backpressure stalls, 1 deliveries dropped to spill") {
		t.Errorf("bus ledger missing:\n%s", buf.String())
	}
	buf.Reset()
	DataQuality(&buf, "single", measure.Stats{Attempts: 10, Pings: 10})
	if strings.Contains(buf.String(), "fan-out bus") {
		t.Errorf("bus ledger printed without bus engagement:\n%s", buf.String())
	}
}

func TestExtensionRenderers(t *testing.T) {
	var buf bytes.Buffer
	GeoDensities(&buf, []analysis.GeoDensity{{
		Continent: geo.EU, SCPerMKm2: 7000, AtlasPerMKm2: 550, Ratio: 12.9,
		DCsPerMKm2: 5.1, SCProbes: 72000, AtlasProbes: 5574, Datacenters: 52,
	}})
	if !strings.Contains(buf.String(), "12.9x") {
		t.Errorf("geoDensity render wrong:\n%s", buf.String())
	}
	buf.Reset()
	Flattening(&buf, []analysis.Flattening{{Provider: "GCP", MeanASes: 2.31, Box: box(2, 2, 3), N: 100}})
	if !strings.Contains(buf.String(), "2.31") {
		t.Errorf("flattening render wrong:\n%s", buf.String())
	}
	buf.Reset()
	ProviderConsistency(&buf, []analysis.ProviderConsistency{{
		Continent: geo.EU, MedianSpreadMs: 10.1, MaxKS: 0.35,
		Providers: []analysis.ProviderLatency{{Provider: "AMZN", Box: box(37), N: 10}},
	}})
	if !strings.Contains(buf.String(), "AMZN:37") {
		t.Errorf("consistency render wrong:\n%s", buf.String())
	}
	buf.Reset()
	EdgeScenarios(&buf, []edge.Scenario{{
		Continent: geo.AF, Placement: edge.PlacementCloud,
		Latency: box(130, 140, 150), UnderMTP: 0, UnderHPL: 0.3, UnderHRT: 0.9, N: 10,
	}}, []edge.Verdict{{Continent: geo.AF, CloudMedianMs: 140, EdgeMedianMs: 27, GainMs: 113, EdgeWorthwhile: true}})
	if !strings.Contains(buf.String(), "regional edge worthwhile") {
		t.Errorf("edge render wrong:\n%s", buf.String())
	}
	buf.Reset()
	FiveG(&buf, []edge.FiveG{{Continent: geo.EU, MTPAtLastMile: 0.4, MTPViaCloud: 0.1, N: 5}},
		[]edge.FiveG{{Continent: geo.EU, MTPAtLastMile: 0.98, MTPViaCloud: 0.2, N: 5}})
	if !strings.Contains(buf.String(), "98%") {
		t.Errorf("5G render wrong:\n%s", buf.String())
	}
	buf.Reset()
	Closeness(&buf, []analysis.Closeness{
		{Country: "DE", Probes: 500, MedianNN: 22.5},
		{Country: "CA", Probes: 40, MedianNN: 310.0},
	}, 1)
	out := buf.String()
	if !strings.Contains(out, "DE") || !strings.Contains(out, "CA") {
		t.Errorf("closeness render wrong:\n%s", out)
	}
}
