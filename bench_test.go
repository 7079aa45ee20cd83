// Benchmark harness: one testing.B target per table and figure of the
// paper (see DESIGN.md §3 for the experiment index). Each bench runs
// the analysis that regenerates its figure from a shared campaign
// dataset and reports the figure's headline number as a custom metric,
// so `go test -bench=. -benchmem` doubles as the experiment runner
// behind EXPERIMENTS.md.
package cloudy_test

import (
	"context"
	"io"
	"sync"
	"testing"

	cloudy "repro"
	"repro/internal/analysis"
	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/geo"
	"repro/internal/netaddr"
	"repro/internal/probes"
	"repro/internal/world"
)

var (
	benchOnce  sync.Once
	benchStudy *cloudy.Study
)

// benchData runs one moderately sized campaign shared by all figure
// benches (seeded, deterministic).
func benchData(b *testing.B) *cloudy.Study {
	b.Helper()
	benchOnce.Do(func() {
		s, err := cloudy.RunStudy(context.Background(), cloudy.StudyConfig{
			Seed: 1, Scale: 0.05, Cycles: 4, TargetsPerProbe: 6,
		})
		if err != nil {
			panic(err)
		}
		benchStudy = s
	})
	return benchStudy
}

// ---- T1: Table 1 ----

func BenchmarkTable1Inventory(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		counts := s.World.Inventory.CountByContinent()
		total = 0
		for _, row := range counts {
			for _, n := range row {
				total += n
			}
		}
	}
	b.ReportMetric(float64(total), "datacenters")
}

// ---- F1/F2/F14: probe distributions ----

func BenchmarkFig1Fig2Distributions(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var sc, at analysis.FleetDensity
	for i := 0; i < b.N; i++ {
		sc = analysis.Density(s.SC)
		at = analysis.Density(s.Atlas)
	}
	b.ReportMetric(float64(sc.Total), "sc-probes")
	b.ReportMetric(float64(at.Total), "atlas-probes")
}

func BenchmarkFig14ProbeDensity(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var d analysis.FleetDensity
	for i := 0; i < b.N; i++ {
		d = analysis.Density(s.SC)
	}
	if len(d.PerCountry) > 0 {
		b.ReportMetric(float64(d.PerCountry[0].Probes), "densest-country-probes")
	}
}

// ---- F3 + takeaway ----

func BenchmarkFig3LatencyMap(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var entries []analysis.CountryLatency
	for i := 0; i < b.N; i++ {
		entries = analysis.LatencyMap(s.Store, 10)
	}
	b.ReportMetric(float64(len(entries)), "countries")
}

func BenchmarkTakeawayThresholds(b *testing.B) {
	s := benchData(b)
	entries := analysis.LatencyMap(s.Store, 10)
	b.ResetTimer()
	var t analysis.ThresholdSummary
	for i := 0; i < b.N; i++ {
		t = analysis.Thresholds(entries)
	}
	b.ReportMetric(float64(t.UnderHPL), "countries-under-hpl")
	b.ReportMetric(float64(t.UnderHRT), "countries-under-hrt")
}

// ---- F4 ----

func BenchmarkFig4ContinentCDF(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var dists []analysis.ContinentDistribution
	for i := 0; i < b.N; i++ {
		dists = analysis.ContinentDistributions(s.Store, "speedchecker")
	}
	for _, d := range dists {
		if d.Continent == geo.EU {
			b.ReportMetric(100*d.UnderHPL, "eu-under-hpl-pct")
		}
		if d.Continent == geo.AF {
			b.ReportMetric(100*d.UnderHPL, "af-under-hpl-pct")
		}
	}
}

// ---- F5 / F16 ----

func BenchmarkFig5PlatformDiff(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var diffs []analysis.PlatformDiff
	for i := 0; i < b.N; i++ {
		diffs = analysis.PlatformComparison(s.Store)
	}
	for _, d := range diffs {
		if d.Continent == geo.AF {
			b.ReportMetric(100*d.AtlasFasterShare, "af-atlas-faster-pct")
		}
	}
}

func BenchmarkFig16MatchedComparison(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var m []analysis.MatchedDiff
	for i := 0; i < b.N; i++ {
		m = analysis.MatchedComparison(s.Store, 3)
	}
	b.ReportMetric(float64(len(m)), "matched-continents")
}

// ---- F6 ----

func BenchmarkFig6InterContinental(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var af []analysis.InterContinentBox
	for i := 0; i < b.N; i++ {
		af = analysis.InterContinental(s.Store,
			[]string{"DZ", "EG", "ET", "KE", "MA", "SN", "TN", "ZA"},
			[]geo.Continent{geo.EU, geo.NA, geo.AF})
		analysis.InterContinental(s.Store,
			[]string{"AR", "BO", "BR", "CL", "CO", "EC", "PE", "VE"},
			[]geo.Continent{geo.NA, geo.SA})
	}
	for _, box := range af {
		if box.Country == "EG" && box.TargetContinent == geo.EU {
			b.ReportMetric(box.Box.Median, "eg-to-eu-median-ms")
		}
		if box.Country == "EG" && box.TargetContinent == geo.AF {
			b.ReportMetric(box.Box.Median, "eg-to-af-median-ms")
		}
	}
}

// ---- F7 / F19 ----

func BenchmarkFig7aLastMileShare(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var glob []analysis.LastMileImpact
	for i := 0; i < b.N; i++ {
		analysis.LastMile(s.Processed, false)
		glob = analysis.GlobalLastMile(s.Processed)
	}
	for _, im := range glob {
		if im.Category == analysis.CatHomeUserISP {
			b.ReportMetric(im.SharePct.Median, "global-home-share-pct")
		}
	}
}

func BenchmarkFig7bLastMileAbsolute(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var glob []analysis.LastMileImpact
	for i := 0; i < b.N; i++ {
		glob = analysis.GlobalLastMile(s.Processed)
	}
	for _, im := range glob {
		switch im.Category {
		case analysis.CatHomeUserISP:
			b.ReportMetric(im.AbsMs.Median, "home-abs-ms")
		case analysis.CatAtlas:
			b.ReportMetric(im.AbsMs.Median, "atlas-abs-ms")
		}
	}
}

func BenchmarkFig19LastMileClosest(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var imps []analysis.LastMileImpact
	for i := 0; i < b.N; i++ {
		imps = analysis.LastMile(s.Processed, true)
	}
	b.ReportMetric(float64(len(imps)), "groups")
}

// ---- F8 / F9 ----

func BenchmarkFig8LastMileCv(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var groups []analysis.CvGroup
	for i := 0; i < b.N; i++ {
		groups = analysis.LastMileCvByContinent(s.Processed, 5)
	}
	for _, g := range groups {
		if g.Continent == geo.EU && g.Category == analysis.CatHomeUserISP {
			b.ReportMetric(g.MedianCv, "eu-home-median-cv")
		}
	}
}

func BenchmarkFig9CountryCv(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var groups []analysis.CvGroup
	for i := 0; i < b.N; i++ {
		groups = analysis.LastMileCvByCountry(s.Processed, analysis.Fig9Countries, 5)
	}
	b.ReportMetric(float64(len(groups)), "country-groups")
}

// ---- F10 / F11 ----

func BenchmarkFig10Interconnections(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var shares []analysis.InterconnectShare
	for i := 0; i < b.N; i++ {
		shares = analysis.Interconnections(s.Processed)
	}
	for _, sh := range shares {
		switch sh.Provider {
		case "GCP":
			b.ReportMetric(sh.DirectPct, "gcp-direct-pct")
		case "VLTR":
			b.ReportMetric(sh.MultiASPct, "vltr-public-pct")
		}
	}
}

func BenchmarkFig11Pervasiveness(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var rows []analysis.PervasivenessRow
	for i := 0; i < b.N; i++ {
		rows = analysis.Pervasiveness(s.Processed)
	}
	for _, r := range rows {
		if r.Provider == "GCP" {
			b.ReportMetric(r.PerContinent[geo.EU], "gcp-eu-pervasiveness")
		}
		if r.Provider == "VLTR" {
			b.ReportMetric(r.PerContinent[geo.EU], "vltr-eu-pervasiveness")
		}
	}
}

// ---- F12/F13/F17/F18: case studies ----

func benchCaseStudy(b *testing.B, vp, dc string, metric string) {
	s := benchData(b)
	b.ResetTimer()
	var m analysis.PeeringMatrix
	var lat []analysis.PeeringLatency
	for i := 0; i < b.N; i++ {
		m = analysis.CaseStudyMatrix(s.Processed, s.World.Registry, vp, dc, 5)
		lat = analysis.CaseStudyLatency(s.Processed, vp, dc, 5)
	}
	b.ReportMetric(float64(len(m.Rows)), "top-isps")
	var dsum, tsum float64
	for _, pl := range lat {
		dsum += pl.Direct.Median
		tsum += pl.Transit.Median
	}
	if n := float64(len(lat)); n > 0 {
		b.ReportMetric(tsum/n-dsum/n, metric)
	}
}

func BenchmarkFig12GermanyUK(b *testing.B)  { benchCaseStudy(b, "DE", "GB", "transit-minus-direct-ms") }
func BenchmarkFig13JapanIndia(b *testing.B) { benchCaseStudy(b, "JP", "IN", "transit-minus-direct-ms") }
func BenchmarkFig17UkraineUK(b *testing.B)  { benchCaseStudy(b, "UA", "GB", "transit-minus-direct-ms") }
func BenchmarkFig18BahrainIndia(b *testing.B) {
	benchCaseStudy(b, "BH", "IN", "transit-minus-direct-ms")
}

// ---- F15 / S1 ----

func BenchmarkFig15IcmpVsTcp(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var rows []analysis.ProtocolComparison
	for i := 0; i < b.N; i++ {
		rows = analysis.ProtocolComparisons(s.Store)
	}
	var worst float64
	for _, r := range rows {
		if r.MedianGapPct > worst {
			worst = r.MedianGapPct
		}
	}
	b.ReportMetric(worst, "worst-icmp-gap-pct")
}

func BenchmarkCampaignConfidence(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n = len(s.SCStats.ConfidentCountries())
	}
	b.ReportMetric(float64(n), "confident-countries")
	b.ReportMetric(float64(s.SCStats.Pings), "pings")
	b.ReportMetric(float64(s.SCStats.Traceroutes), "traceroutes")
}

// ---- substrate microbenches ----

func BenchmarkWorldBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := world.Build(world.Config{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPingSimulation(b *testing.B) {
	s := benchData(b)
	p := s.SC.InCountry("DE")[0]
	r := s.World.Inventory.RegionsOf("GCP")[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sim.Ping(p, r, dataset.TCP, i)
	}
}

func BenchmarkTracerouteSimulation(b *testing.B) {
	s := benchData(b)
	p := s.SC.InCountry("JP")[0]
	r := s.World.Inventory.RegionsOf("AMZN")[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sim.Traceroute(p, r, i)
	}
}

func BenchmarkPipelineProcess(b *testing.B) {
	s := benchData(b)
	if len(s.Store.Traces) == 0 {
		b.Skip("no traces")
	}
	proc := cloudy.NewProcessor(s.World)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proc.Process(&s.Store.Traces[i%len(s.Store.Traces)])
	}
}

func BenchmarkBGPPathCold(b *testing.B) {
	// A fresh three-tier hierarchy per iteration batch measures the
	// uncached valley-free computation.
	g := &bgp.Graph{}
	var tier1 [8]asn.Number
	for i := range tier1 {
		tier1[i] = asn.Number(i + 1)
		for j := 0; j < i; j++ {
			g.AddPeering(tier1[i], tier1[j])
		}
	}
	next := asn.Number(100)
	var access []asn.Number
	for t2 := 0; t2 < 40; t2++ {
		t2AS := next
		next++
		g.AddTransit(tier1[t2%len(tier1)], t2AS)
		g.AddTransit(tier1[(t2+3)%len(tier1)], t2AS)
		for a := 0; a < 6; a++ {
			g.AddTransit(t2AS, next)
			access = append(access, next)
			next++
		}
	}
	// Walk a large distinct pair space so most lookups miss the cache.
	n := len(access)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair := (i * 241) % (n * n)
		src := access[pair/n]
		dst := access[pair%n]
		if _, ok := g.Path(src, dst); !ok {
			b.Fatal("disconnected bench graph")
		}
	}
}

func BenchmarkBGPPathWarm(b *testing.B) {
	s := benchData(b)
	isps := s.World.AccessISPs("DE")
	gcp, _ := s.World.Inventory.Provider("GCP")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.World.Graph.Path(isps[i%len(isps)].Number, gcp.ASN)
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	s := benchData(b)
	ip := netaddr.MustParseIP("60.0.16.1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.World.Registry.ResolveIP(ip + netaddr.IP(i%4096))
	}
}

func BenchmarkFleetGeneration(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probes.GenerateSpeedchecker(s.World, probes.Config{Seed: int64(i), Scale: 0.01})
	}
}

func BenchmarkFullReport(b *testing.B) {
	s := benchData(b)
	results := s.Analyze(cloudy.AnalyzeConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.WriteReport(io.Discard, results)
	}
}

// ---- §8 conclusion / §7 discussion ----

func BenchmarkProviderConsistency(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var rows []analysis.ProviderConsistency
	for i := 0; i < b.N; i++ {
		rows = analysis.ProviderComparison(s.Store, 10)
	}
	for _, r := range rows {
		if r.Continent == geo.EU {
			b.ReportMetric(r.MedianSpreadMs, "eu-median-spread-ms")
			b.ReportMetric(r.MaxKS, "eu-max-ks")
		}
	}
}

func BenchmarkEdgeWhatIf(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var vs []edge.Verdict
	for i := 0; i < b.N; i++ {
		vs = edge.Verdicts(edge.Evaluate(s.Processed, 4))
	}
	for _, v := range vs {
		if v.Continent == geo.AF {
			b.ReportMetric(v.GainMs, "af-regional-edge-gain-ms")
		}
		if v.Continent == geo.EU {
			b.ReportMetric(v.GainMs, "eu-regional-edge-gain-ms")
		}
	}
}

func BenchmarkFlattening(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var rows []analysis.Flattening
	for i := 0; i < b.N; i++ {
		rows = analysis.PathFlattening(s.Processed)
	}
	for _, r := range rows {
		switch r.Provider {
		case "GCP":
			b.ReportMetric(r.MeanASes, "gcp-mean-aspath")
		case "VLTR":
			b.ReportMetric(r.MeanASes, "vltr-mean-aspath")
		}
	}
}

func BenchmarkGaoInference(b *testing.B) {
	s := benchData(b)
	var paths [][]asn.Number
	for _, cc := range []string{"DE", "JP", "US", "BR"} {
		for _, isp := range s.World.AccessISPs(cc) {
			for _, other := range s.World.AccessISPs("GB") {
				if p, ok := s.World.Graph.Path(isp.Number, other.Number); ok {
					paths = append(paths, p)
				}
			}
		}
	}
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		edges := bgp.InferRelationships(paths)
		correct, total := s.World.Graph.Score(edges)
		if total > 0 {
			acc = float64(correct) / float64(total)
		}
	}
	b.ReportMetric(acc, "inference-accuracy")
}

func BenchmarkFig14Closeness(b *testing.B) {
	s := benchData(b)
	b.ResetTimer()
	var rows []analysis.Closeness
	for i := 0; i < b.N; i++ {
		rows = analysis.FleetCloseness(s.SC, 10)
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[0].MedianNN, "densest-median-nn-km")
	}
}
