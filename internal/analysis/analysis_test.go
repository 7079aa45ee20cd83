package analysis

import (
	"context"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/probes"
	"repro/internal/world"
)

// fixture runs one small two-platform campaign shared by all tests.
type fixture struct {
	w         *world.World
	store     *dataset.Store
	processed []pipeline.Processed
	sc        *probes.Fleet
	atlas     *probes.Fleet
}

var (
	fixOnce sync.Once
	fix     fixture
)

func testData(t testing.TB) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		w := world.MustBuild(world.Config{Seed: 1})
		sim := netsim.New(w)
		sc := probes.GenerateSpeedchecker(w, probes.Config{Seed: 1, Scale: 0.06})
		at := probes.GenerateAtlas(w, probes.Config{Seed: 1, Scale: 1})
		cfg := measure.Config{
			Seed: 1, Cycles: 4, ProbesPerCountry: 40, TargetsPerProbe: 6,
			MinProbesPerCountry: 2, RequestsPerMinute: 1000, Workers: 8,
			BothPingProtocols: measure.FlagOn, Traceroutes: true, NeighborContinentTargets: true,
		}
		campaign, err := measure.New(sim, sc, cfg)
		if err != nil {
			panic(err)
		}
		store, _, err := campaign.Run(context.Background())
		if err != nil {
			panic(err)
		}
		// Atlas probes are always on; one uncapped cycle preserves the
		// platform's true geographic proportions.
		atCfg := cfg
		atCfg.ProbesPerCountry = 0
		atCfg.Cycles = 1
		atCampaign, err := measure.New(sim, at, atCfg)
		if err != nil {
			panic(err)
		}
		atStore, _, err := atCampaign.Run(context.Background())
		if err != nil {
			panic(err)
		}
		store.Merge(atStore)
		fix = fixture{
			w: w, store: store,
			processed: pipeline.NewProcessor(w).ProcessAll(store),
			sc:        sc, atlas: at,
		}
	})
	return &fix
}

func TestLatencyMapShape(t *testing.T) {
	f := testData(t)
	entries := CollectStore(f.store).LatencyMap(10)
	if len(entries) < 80 {
		t.Fatalf("latency map covers %d countries", len(entries))
	}
	byCountry := map[string]CountryLatency{}
	for _, e := range entries {
		byCountry[e.Country] = e
		if e.MedianMs <= 0 || e.Samples < 10 {
			t.Errorf("%s: degenerate entry %+v", e.Country, e)
		}
		if BandOf(e.MedianMs) != e.Band {
			t.Errorf("%s: band mismatch", e.Country)
		}
	}
	// §4.1: countries with in-land DCs do far better than those without.
	de, deOK := byCountry["DE"]
	eg, egOK := byCountry["EG"]
	if !deOK || !egOK {
		t.Fatal("DE or EG missing from the map")
	}
	if de.MedianMs >= eg.MedianMs {
		t.Errorf("Germany (%.0f ms) should beat Egypt (%.0f ms)", de.MedianMs, eg.MedianMs)
	}
	if de.Band > Band60to100 {
		t.Errorf("Germany in band %v, want a fast band", de.Band)
	}
	if eg.Band < Band100to250 {
		t.Errorf("Egypt in band %v, want a slow band (nearest in-continent DC is in ZA)", eg.Band)
	}
	// China is the MTP outlier (§4.1).
	if cn, ok := byCountry["CN"]; ok && cn.MedianMs >= 32 {
		t.Errorf("China median = %.0f ms, want the fastest bucket", cn.MedianMs)
	}
}

// TestThresholdConstants pins the QoE thresholds of §2.1.
func TestThresholdConstants(t *testing.T) {
	if MTPms != 20 || HPLms != 100 || HRTms != 250 {
		t.Errorf("QoE thresholds drifted: %v %v %v", MTPms, HPLms, HRTms)
	}
}

func TestThresholdTakeaway(t *testing.T) {
	f := testData(t)
	entries := CollectStore(f.store).LatencyMap(10)
	s := Thresholds(entries)
	if s.Countries == 0 {
		t.Fatal("no countries")
	}
	// §4.1 takeaway shape: almost no country meets MTP, most meet HPL,
	// nearly all meet HRT.
	if s.UnderMTP > s.Countries/10 {
		t.Errorf("%d/%d countries under MTP, want almost none", s.UnderMTP, s.Countries)
	}
	hplFrac := float64(s.UnderHPL) / float64(s.Countries)
	if hplFrac < 0.6 || hplFrac > 0.95 {
		t.Errorf("HPL share = %.2f, want ≈ 96/120 = 0.8", hplFrac)
	}
	if float64(s.UnderHRT)/float64(s.Countries) < 0.9 {
		t.Errorf("HRT share = %d/%d, want nearly all", s.UnderHRT, s.Countries)
	}
	if s.UnderMTP > s.UnderHPL || s.UnderHPL > s.UnderHRT {
		t.Error("threshold counts must be monotone")
	}
}

func TestContinentDistributions(t *testing.T) {
	f := testData(t)
	dists := CollectStore(f.store).ContinentDistributions("speedchecker")
	byCont := map[geo.Continent]ContinentDistribution{}
	for _, d := range dists {
		byCont[d.Continent] = d
		if d.UnderMTP > d.UnderHPL || d.UnderHPL > d.UnderHRT {
			t.Errorf("%v: CDF not monotone across thresholds", d.Continent)
		}
	}
	for _, cont := range []geo.Continent{geo.EU, geo.NA, geo.AF, geo.AS, geo.SA, geo.OC} {
		if _, ok := byCont[cont]; !ok {
			t.Fatalf("missing distribution for %v", cont)
		}
	}
	// Fig 4: EU/NA ≈ 90% under HPL; Africa < 35%; Africa HRT ≈ 65%.
	if byCont[geo.EU].UnderHPL < 0.75 {
		t.Errorf("EU under-HPL = %.2f, want ≈ 0.9", byCont[geo.EU].UnderHPL)
	}
	if byCont[geo.NA].UnderHPL < 0.7 {
		t.Errorf("NA under-HPL = %.2f, want ≈ 0.9", byCont[geo.NA].UnderHPL)
	}
	if byCont[geo.AF].UnderHPL > 0.45 {
		t.Errorf("AF under-HPL = %.2f, want < 0.45 (paper: <10%%)", byCont[geo.AF].UnderHPL)
	}
	if byCont[geo.AF].UnderHPL >= byCont[geo.EU].UnderHPL {
		t.Error("Africa must trail Europe")
	}
	if hrt := byCont[geo.AF].UnderHRT; hrt < 0.4 || hrt > 0.95 {
		t.Errorf("AF under-HRT = %.2f, want ≈ 0.65", hrt)
	}
}

func TestPlatformComparison(t *testing.T) {
	f := testData(t)
	diffs := CollectStore(f.store).PlatformComparison()
	byCont := map[geo.Continent]PlatformDiff{}
	for _, d := range diffs {
		byCont[d.Continent] = d
		if len(d.Diffs) != 99 {
			t.Errorf("%v: %d percentile diffs", d.Continent, len(d.Diffs))
		}
	}
	// Fig 5: Atlas faster nearly everywhere; the gap is greatest in
	// Africa; South America leans towards Speedchecker (Brazil skew).
	for _, cont := range []geo.Continent{geo.EU, geo.NA, geo.AF} {
		d, ok := byCont[cont]
		if !ok {
			t.Fatalf("missing %v", cont)
		}
		if d.AtlasFasterShare < 0.5 {
			t.Errorf("%v: Atlas faster share = %.2f, want > 0.5", cont, d.AtlasFasterShare)
		}
	}
	if af, sa := byCont[geo.AF], byCont[geo.SA]; af.AtlasFasterShare <= sa.AtlasFasterShare {
		t.Errorf("AF gap (%.2f) should exceed SA (%.2f)", af.AtlasFasterShare, sa.AtlasFasterShare)
	}
	if sa, ok := byCont[geo.SA]; ok && sa.AtlasFasterShare > 0.5 {
		t.Errorf("SA: Speedchecker should win more often (Atlas share %.2f)", sa.AtlasFasterShare)
	}
}

func TestMatchedComparison(t *testing.T) {
	f := testData(t)
	matched := CollectStore(f.store).MatchedComparison(3)
	if len(matched) == 0 {
		t.Fatal("no matched continents")
	}
	for _, m := range matched {
		if m.MatchedGroups < 3 || len(m.Diffs) == 0 {
			t.Errorf("%v: degenerate matched diff", m.Continent)
		}
		// Fig 16: within the same <country, ISP>, Atlas is faster for
		// the large majority of the distribution.
		atlasFaster := 0
		for _, d := range m.Diffs {
			if d > 0 {
				atlasFaster++
			}
		}
		if frac := float64(atlasFaster) / float64(len(m.Diffs)); frac < 0.6 {
			t.Errorf("%v: matched Atlas-faster share = %.2f, want high", m.Continent, frac)
		}
	}
}

func TestProtocolComparisons(t *testing.T) {
	f := testData(t)
	rows := CollectStore(f.store).ProtocolComparisons()
	if len(rows) < 5 {
		t.Fatalf("protocol comparison rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MedianGapPct < 0 {
			t.Errorf("%v: TCP median above ICMP (%.1f%%)", r.Continent, r.MedianGapPct)
		}
		if r.MedianGapPct > 8 {
			t.Errorf("%v: ICMP gap %.1f%%, want small (§3.3 ≈2%%)", r.Continent, r.MedianGapPct)
		}
	}
}

func TestInterContinentalFig6(t *testing.T) {
	f := testData(t)
	agg := CollectStore(f.store)
	boxes := agg.InterContinental(
		[]string{"DZ", "EG", "MA", "KE", "ZA"},
		[]geo.Continent{geo.AF, geo.EU, geo.NA})
	get := func(cc string, cont geo.Continent) (InterContinentBox, bool) {
		for _, b := range boxes {
			if b.Country == cc && b.TargetContinent == cont {
				return b, true
			}
		}
		return InterContinentBox{}, false
	}
	// Fig 6a: Egypt reaches EU far faster than in-continent (ZA) DCs,
	// and even NA beats the in-continent option.
	egEU, ok1 := get("EG", geo.EU)
	egAF, ok2 := get("EG", geo.AF)
	egNA, ok3 := get("EG", geo.NA)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("missing Egypt boxes")
	}
	if egEU.Box.Median >= egAF.Box.Median {
		t.Errorf("EG→EU (%.0f) should beat EG→AF (%.0f)", egEU.Box.Median, egAF.Box.Median)
	}
	if egNA.Box.Median >= egAF.Box.Median {
		t.Errorf("EG→NA (%.0f) should beat EG→AF (%.0f)", egNA.Box.Median, egAF.Box.Median)
	}
	// South Africa has the quickest in-continent access.
	zaAF, ok := get("ZA", geo.AF)
	if !ok {
		t.Fatal("missing ZA box")
	}
	if zaAF.Box.Median >= egAF.Box.Median {
		t.Error("ZA in-continent access should beat Egypt's")
	}
	// Fig 6b: Bolivia's two options are comparable.
	sa := agg.InterContinental([]string{"BO", "BR", "CO"}, []geo.Continent{geo.SA, geo.NA})
	var boSA, boNA, coSA, coNA InterContinentBox
	for _, b := range sa {
		switch {
		case b.Country == "BO" && b.TargetContinent == geo.SA:
			boSA = b
		case b.Country == "BO" && b.TargetContinent == geo.NA:
			boNA = b
		case b.Country == "CO" && b.TargetContinent == geo.SA:
			coSA = b
		case b.Country == "CO" && b.TargetContinent == geo.NA:
			coNA = b
		}
	}
	if boSA.Box.N == 0 || boNA.Box.N == 0 {
		t.Fatal("missing Bolivia boxes")
	}
	ratio := boSA.Box.Median / boNA.Box.Median
	if ratio < 0.55 || ratio > 1.8 {
		t.Errorf("Bolivia SA/NA ratio = %.2f, want near parity", ratio)
	}
	// Colombia reaches NA quicker than the SA datacenters (Fig 6b).
	if coSA.Box.N > 0 && coNA.Box.N > 0 && coNA.Box.Median >= coSA.Box.Median {
		t.Errorf("CO→NA (%.0f) should beat CO→SA (%.0f)", coNA.Box.Median, coSA.Box.Median)
	}
}

func TestDensitySummaries(t *testing.T) {
	f := testData(t)
	sc := Density(f.sc)
	at := Density(f.atlas)
	if sc.Total != f.sc.Len() || at.Total != f.atlas.Len() {
		t.Error("totals mismatch")
	}
	if sc.PerContinent[geo.EU] <= sc.PerContinent[geo.NA] {
		t.Error("Speedchecker EU must dominate NA")
	}
	if len(sc.PerCountry) < 100 {
		t.Errorf("country coverage = %d", len(sc.PerCountry))
	}
	for i := 1; i < len(sc.PerCountry); i++ {
		if sc.PerCountry[i].Probes > sc.PerCountry[i-1].Probes {
			t.Fatal("per-country density not sorted")
		}
	}
}

func TestLatencyMapConfidenceIntervals(t *testing.T) {
	f := testData(t)
	for _, e := range CollectStore(f.store).LatencyMap(10) {
		if !(e.CILowMs <= e.MedianMs && e.MedianMs <= e.CIHighMs) {
			t.Errorf("%s: CI [%v,%v] does not bracket median %v", e.Country, e.CILowMs, e.CIHighMs, e.MedianMs)
		}
		if e.CIHighMs-e.CILowMs < 0 {
			t.Errorf("%s: negative CI width", e.Country)
		}
	}
}

func TestTraceAnomalyFlagged(t *testing.T) {
	f := testData(t)
	nonMonotone, total := 0, 0
	for i := range f.processed {
		p := &f.processed[i]
		if p.EndToEndRTTms <= 0 {
			continue
		}
		total++
		if p.NonMonotoneHops > 0 {
			nonMonotone++
		}
	}
	if total == 0 {
		t.Fatal("no traces")
	}
	frac := float64(nonMonotone) / float64(total)
	// Per-hop noise makes mild non-monotonicity common but not
	// universal — the pipeline must see (and count) it.
	if frac < 0.05 || frac > 0.95 {
		t.Errorf("non-monotone trace fraction = %.2f, want a visible middle ground", frac)
	}
}

func TestFleetCloseness(t *testing.T) {
	f := testData(t)
	rows := FleetCloseness(f.sc, 10)
	if len(rows) < 30 {
		t.Fatalf("closeness rows = %d", len(rows))
	}
	byCountry := map[string]Closeness{}
	for i, r := range rows {
		byCountry[r.Country] = r
		if r.MedianNN <= 0 {
			t.Errorf("%s: non-positive closeness", r.Country)
		}
		if i > 0 && rows[i].MedianNN < rows[i-1].MedianNN {
			t.Fatal("closeness not sorted")
		}
	}
	// Dense countries cluster far tighter than sparse ones: Germany's
	// thousands of probes sit tens of km apart; sparse big countries
	// spread over hundreds.
	de, okDE := byCountry["DE"]
	ca, okCA := byCountry["CA"]
	if okDE && okCA && de.MedianNN >= ca.MedianNN {
		t.Errorf("DE closeness %.0f km should be tighter than CA %.0f km", de.MedianNN, ca.MedianNN)
	}
	if got := FleetCloseness(f.sc, 1<<30); got != nil {
		t.Errorf("impossible floor should yield nil, got %v", got)
	}
}

// TestNearestSemantics pins the closest-datacenter rules on hand-built
// records: lowest mean wins, ties break to the lexicographically first
// region, cross-continent targets are ignored, and Atlas uses TCP only.
func TestNearestSemantics(t *testing.T) {
	mk := func(probe, platform, region string, proto dataset.Protocol, rtt float64) dataset.PingRecord {
		return dataset.PingRecord{
			VP:       dataset.VantagePoint{ProbeID: probe, Platform: platform, Country: "DE", Continent: geo.EU},
			Target:   dataset.Target{Region: region, Provider: "GCP", Country: "DE", Continent: geo.EU},
			Protocol: proto, RTTms: rtt,
		}
	}
	store := &dataset.Store{}
	// Probe p1: region A mean 30, region B mean 20 → B wins.
	store.AddPing(mk("p1", "speedchecker", "a", dataset.TCP, 30))
	store.AddPing(mk("p1", "speedchecker", "b", dataset.TCP, 25))
	store.AddPing(mk("p1", "speedchecker", "b", dataset.ICMP, 15)) // ICMP counts for SC
	// Probe p2: exact tie between regions c and d → c (lexicographic).
	store.AddPing(mk("p2", "speedchecker", "d", dataset.TCP, 40))
	store.AddPing(mk("p2", "speedchecker", "c", dataset.TCP, 40))
	// A cross-continent sample that must not participate.
	far := mk("p1", "speedchecker", "far", dataset.TCP, 1)
	far.Target.Continent = geo.NA
	store.AddPing(far)
	// Atlas probe: ICMP must be ignored, so region f (TCP 20) beats
	// region e (ICMP 5, TCP 30).
	store.AddPing(mk("p3", "atlas", "e", dataset.ICMP, 5))
	store.AddPing(mk("p3", "atlas", "e", dataset.TCP, 30))
	store.AddPing(mk("p3", "atlas", "f", dataset.TCP, 20))

	sc := CollectStore(store).Nearest("speedchecker")
	if sc.Region["p1"] != "b" {
		t.Errorf("p1 nearest = %q, want b", sc.Region["p1"])
	}
	if got := len(sc.Samples["p1"]); got != 2 {
		t.Errorf("p1 nearest samples = %d, want both protocols", got)
	}
	if sc.Region["p2"] != "c" {
		t.Errorf("p2 tie-break = %q, want c", sc.Region["p2"])
	}
	at := CollectStore(store).Nearest("atlas")
	if at.Region["p3"] != "f" {
		t.Errorf("p3 (atlas) nearest = %q, want f (ICMP excluded)", at.Region["p3"])
	}
	if len(at.Samples["p3"]) != 1 {
		t.Errorf("atlas samples = %d, want TCP only", len(at.Samples["p3"]))
	}
}
