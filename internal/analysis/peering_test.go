package analysis

import (
	"testing"

	"repro/internal/asn"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

func shareFor(t *testing.T, shares []InterconnectShare, code string) InterconnectShare {
	t.Helper()
	for _, s := range shares {
		if s.Provider == code {
			return s
		}
	}
	t.Fatalf("no interconnect share for %s", code)
	return InterconnectShare{}
}

func TestInterconnectionsFig10(t *testing.T) {
	f := testData(t)
	shares := Interconnections(f.processed)
	if len(shares) != 9 {
		t.Fatalf("providers in Fig 10 = %d, want 9", len(shares))
	}
	for _, s := range shares {
		sum := s.DirectPct + s.OneASPct + s.MultiASPct
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("%s: percentages sum to %.1f", s.Provider, sum)
		}
		if s.N < 100 {
			t.Errorf("%s: only %d classified paths", s.Provider, s.N)
		}
	}
	// Hypergiants bypass transit: direct is the dominant category.
	for _, code := range []string{"AMZN", "GCP", "MSFT"} {
		s := shareFor(t, shares, code)
		if s.DirectPct < 50 {
			t.Errorf("%s direct = %.0f%%, want > 50%% (§6.1 takeaway)", code, s.DirectPct)
		}
	}
	// Small providers ride the public Internet.
	for _, code := range []string{"VLTR", "LIN", "ORCL"} {
		s := shareFor(t, shares, code)
		if s.MultiASPct < s.DirectPct {
			t.Errorf("%s: 2+ AS (%.0f%%) should dominate direct (%.0f%%)", code, s.MultiASPct, s.DirectPct)
		}
		if s.DirectPct > 30 {
			t.Errorf("%s direct = %.0f%%, want small", code, s.DirectPct)
		}
	}
	// Alibaba's datacenters are islands outside China.
	baba := shareFor(t, shares, "BABA")
	if baba.MultiASPct < 40 {
		t.Errorf("BABA 2+ AS = %.0f%%, want dominant (islands outside CN)", baba.MultiASPct)
	}
	// DigitalOcean leans on private interconnects (its WANs are
	// localized).
	do := shareFor(t, shares, "DO")
	if do.OneASPct < do.DirectPct {
		t.Errorf("DO: 1 AS (%.0f%%) should beat direct (%.0f%%)", do.OneASPct, do.DirectPct)
	}
}

func TestPervasivenessFig11(t *testing.T) {
	f := testData(t)
	rows := Pervasiveness(f.processed)
	if len(rows) != 9 {
		t.Fatalf("pervasiveness rows = %d", len(rows))
	}
	get := func(code string) PervasivenessRow {
		for _, r := range rows {
			if r.Provider == code {
				return r
			}
		}
		t.Fatalf("missing %s", code)
		return PervasivenessRow{}
	}
	// Fig 11: Google, Microsoft and Amazon own most of the route in
	// almost every continent; public-backbone providers own ≈20%.
	for _, code := range []string{"AMZN", "GCP", "MSFT"} {
		r := get(code)
		high := 0
		for _, cont := range []geo.Continent{geo.EU, geo.NA, geo.AS} {
			if v, ok := r.PerContinent[cont]; ok && v > 0.5 {
				high++
			}
		}
		if high < 2 {
			t.Errorf("%s: pervasiveness above 0.5 in only %d major continents: %v", code, high, r.PerContinent)
		}
	}
	for _, code := range []string{"VLTR", "LIN"} {
		r := get(code)
		for cont, v := range r.PerContinent {
			if v > 0.45 {
				t.Errorf("%s in %v: pervasiveness %.2f, want ≈ 0.2", code, cont, v)
			}
		}
	}
	// Ordering: every hypergiant beats every public provider on EU.
	if get("GCP").PerContinent[geo.EU] <= get("VLTR").PerContinent[geo.EU] {
		t.Error("GCP EU pervasiveness should exceed Vultr")
	}
}

func TestGermanyUKCaseStudyFig12(t *testing.T) {
	f := testData(t)
	m := CaseStudyMatrix(f.processed, f.w.Registry, "DE", "GB", 5)
	if len(m.Rows) != 5 {
		t.Fatalf("Fig 12a rows = %d, want top-5", len(m.Rows))
	}
	// The five named German ISPs dominate measurement volume.
	wantISPs := map[asn.Number]bool{3320: true, 3209: true, 6805: true, 6830: true, 8881: true}
	present, directCells := 0, 0
	for _, row := range m.Rows {
		if !wantISPs[row.ISP] {
			t.Errorf("unexpected top German ISP %v (%s)", row.ISP, row.Name)
		}
		// Hypergiants: direct peering with every top German ISP. At test
		// scale a cell can be empty (no sampled paths); present cells
		// must be direct, and the matrix must be mostly filled.
		for _, prov := range []string{"AMZN", "GCP", "MSFT"} {
			cell, ok := row.Cells[prov]
			if !ok {
				continue
			}
			present++
			if cell.Class == pipeline.ClassDirect || cell.Class == pipeline.ClassDirectIXP {
				directCells++
			} else {
				t.Errorf("%v → %s majority class = %v, want direct", row.ISP, prov, cell.Class)
			}
		}
	}
	if present < 12 {
		t.Errorf("only %d/15 hypergiant cells sampled", present)
	}
	if directCells != present {
		t.Errorf("direct cells %d of %d present", directCells, present)
	}
	// The two public exceptions of Fig 12a.
	for _, row := range m.Rows {
		switch row.ISP {
		case 3209: // Vodafone → DO public
			if c, ok := row.Cells["DO"]; ok && c.Class != pipeline.ClassPublic {
				t.Errorf("Vodafone→DO = %v, want 2+ AS", c.Class)
			}
		case 6805: // Telefonica → BABA public
			if c, ok := row.Cells["BABA"]; ok && c.Class != pipeline.ClassPublic {
				t.Errorf("Telefonica→BABA = %v, want 2+ AS", c.Class)
			}
		}
	}

	// Fig 12b: direct vs transit latency towards UK DCs is comparable.
	// Per-provider groups are thin at test scale, so pool across
	// providers as for Fig 13b.
	var direct, transit []float64
	for i := range f.processed {
		p := &f.processed[i]
		if p.Record.VP.Platform != "speedchecker" || p.Record.VP.Country != "DE" ||
			p.Record.Target.Country != "GB" || p.EndToEndRTTms <= 0 ||
			p.Class == pipeline.ClassUnknown {
			continue
		}
		if p.Class == pipeline.ClassDirect || p.Class == pipeline.ClassDirectIXP {
			direct = append(direct, p.EndToEndRTTms)
		} else {
			transit = append(transit, p.EndToEndRTTms)
		}
	}
	if len(direct) < 20 || len(transit) < 20 {
		t.Fatalf("thin DE→GB pools: %d direct, %d transit", len(direct), len(transit))
	}
	db, _ := stats.Summarize(direct)
	tb, _ := stats.Summarize(transit)
	if gap := tb.Median - db.Median; gap < -15 || gap > 20 {
		t.Errorf("DE→GB direct %.0f vs transit %.0f — gap too large for Europe (§6.2: minimal)",
			db.Median, tb.Median)
	}
}

func TestJapanIndiaCaseStudyFig13(t *testing.T) {
	f := testData(t)
	m := CaseStudyMatrix(f.processed, f.w.Registry, "JP", "IN", 5)
	if len(m.Rows) == 0 {
		t.Fatal("no Fig 13a rows")
	}
	for _, row := range m.Rows {
		// DigitalOcean strictly public in Asia.
		if c, ok := row.Cells["DO"]; ok && c.Class != pipeline.ClassPublic {
			t.Errorf("%v → DO = %v, want 2+ AS", row.ISP, c.Class)
		}
		// NTT (4713) → Amazon is not direct.
		if row.ISP == 4713 {
			if c, ok := row.Cells["AMZN"]; ok && (c.Class == pipeline.ClassDirect || c.Class == pipeline.ClassDirectIXP) {
				t.Errorf("NTT→AMZN should not be direct, got %v", c.Class)
			}
		}
	}

	// Fig 13b: direct peering reduces latency variation. Per-provider
	// samples are thin at test scale, so pool across providers.
	var direct, transit []float64
	for i := range f.processed {
		p := &f.processed[i]
		if p.Record.VP.Platform != "speedchecker" || p.Record.VP.Country != "JP" ||
			p.Record.Target.Country != "IN" || p.EndToEndRTTms <= 0 ||
			p.Class == pipeline.ClassUnknown {
			continue
		}
		if p.Class == pipeline.ClassDirect || p.Class == pipeline.ClassDirectIXP {
			direct = append(direct, p.EndToEndRTTms)
		} else {
			transit = append(transit, p.EndToEndRTTms)
		}
	}
	if len(direct) < 20 || len(transit) < 20 {
		t.Skipf("thin JP→IN pools: %d direct, %d transit", len(direct), len(transit))
	}
	db, _ := stats.Summarize(direct)
	tb, _ := stats.Summarize(transit)
	if db.IQR() >= tb.IQR() {
		t.Errorf("direct IQR %.1f should sit below transit IQR %.1f", db.IQR(), tb.IQR())
	}
	// Medians remain comparable (§6.2: the win is in the tails).
	if db.Median >= tb.Median*1.1 {
		t.Errorf("direct median %.0f should not exceed transit %.0f", db.Median, tb.Median)
	}
}

func TestBahrainIndiaCaseStudyFig18(t *testing.T) {
	f := testData(t)
	lat := CaseStudyLatency(f.processed, "BH", "IN", 5)
	if len(lat) == 0 {
		t.Skip("not enough BH→IN pairs at this scale")
	}
	// Fig 18b: direct peering achieves consistently shorter latencies
	// for in-land Asian interconnections.
	for _, pl := range lat {
		if pl.Direct.Median >= pl.Transit.Median {
			t.Errorf("%s BH→IN: direct %.0f should beat transit %.0f",
				pl.Provider, pl.Direct.Median, pl.Transit.Median)
		}
	}
}

func TestUkraineUKCaseStudyFig17(t *testing.T) {
	f := testData(t)
	m := CaseStudyMatrix(f.processed, f.w.Registry, "UA", "GB", 5)
	if len(m.Rows) != 5 {
		t.Fatalf("Fig 17a rows = %d", len(m.Rows))
	}
	// The hypergiant direct-peering trend repeats for Ukrainian ISPs.
	directCells := 0
	for _, row := range m.Rows {
		for _, prov := range []string{"AMZN", "GCP", "MSFT"} {
			if c, ok := row.Cells[prov]; ok && (c.Class == pipeline.ClassDirect || c.Class == pipeline.ClassDirectIXP) {
				directCells++
			}
		}
	}
	if directCells < 12 { // of up to 15 hypergiant cells
		t.Errorf("hypergiant direct cells = %d/15, want the vast majority", directCells)
	}
}

func TestMatrixCellConsistency(t *testing.T) {
	f := testData(t)
	m := CaseStudyMatrix(f.processed, f.w.Registry, "DE", "GB", 5)
	for _, row := range m.Rows {
		if row.Name == "" {
			t.Errorf("ISP %v has no name", row.ISP)
		}
		for prov, cell := range row.Cells {
			if cell.Pct < 0 || cell.Pct > 100 || cell.N <= 0 {
				t.Errorf("%v→%s: bad cell %+v", row.ISP, prov, cell)
			}
			if cell.Class == pipeline.ClassUnknown {
				t.Errorf("%v→%s: unknown majority class", row.ISP, prov)
			}
		}
	}
	// Rows are ranked by measurement volume.
	for i := 1; i < len(m.Rows); i++ {
		if m.Rows[i].N > m.Rows[i-1].N {
			t.Error("matrix rows not sorted by measurement count")
		}
	}
}

func TestEmptyPeeringInputs(t *testing.T) {
	f := testData(t)
	if got := Interconnections(nil); got != nil {
		t.Errorf("empty interconnections = %v", got)
	}
	if got := Pervasiveness(nil); got != nil {
		t.Errorf("empty pervasiveness = %v", got)
	}
	m := CaseStudyMatrix(nil, f.w.Registry, "DE", "GB", 5)
	if len(m.Rows) != 0 {
		t.Error("empty matrix should have no rows")
	}
	if got := CaseStudyLatency(nil, "DE", "GB", 1); got != nil {
		t.Errorf("empty case-study latency = %v", got)
	}
}

// mkProcessed builds a synthetic processed trace for unit-testing the
// case-study aggregations without a full campaign.
func mkProcessed(isp asn.Number, prov, vpCountry, dcCountry string, class pipeline.Class, rtt float64) pipeline.Processed {
	rec := &dataset.TracerouteRecord{
		VP: dataset.VantagePoint{
			ProbeID: "p", Platform: "speedchecker", Country: vpCountry, ISP: isp,
		},
		Target: dataset.Target{Region: "r", Provider: prov, Country: dcCountry},
	}
	return pipeline.Processed{Record: rec, Class: class, EndToEndRTTms: rtt, ReachedCloud: true}
}

func TestCaseStudyLatencySynthetic(t *testing.T) {
	var processed []pipeline.Processed
	for i := 0; i < 30; i++ {
		processed = append(processed,
			mkProcessed(100, "GCP", "BH", "IN", pipeline.ClassDirect, 60+float64(i%5)),
			mkProcessed(101, "GCP", "BH", "IN", pipeline.ClassPublic, 120+float64(i%40)),
			// Below the sample floor on the direct side:
			mkProcessed(102, "LIN", "BH", "IN", pipeline.ClassPublic, 150),
			// Wrong country pair, must be ignored:
			mkProcessed(103, "GCP", "JP", "IN", pipeline.ClassDirect, 10),
		)
	}
	lat := CaseStudyLatency(processed, "BH", "IN", 10)
	if len(lat) != 1 || lat[0].Provider != "GCP" {
		t.Fatalf("rows = %+v", lat)
	}
	pl := lat[0]
	if pl.NDirect != 30 || pl.NTransit != 30 {
		t.Errorf("counts = %d/%d", pl.NDirect, pl.NTransit)
	}
	if pl.Direct.Median >= pl.Transit.Median {
		t.Error("direct median should be lower in this synthetic setup")
	}
	if pl.Direct.IQR() >= pl.Transit.IQR() {
		t.Error("direct IQR should be tighter in this synthetic setup")
	}
	// Lightsail folds into Amazon.
	var ltsl []pipeline.Processed
	for i := 0; i < 20; i++ {
		ltsl = append(ltsl,
			mkProcessed(100, "LTSL", "BH", "IN", pipeline.ClassDirect, 50),
			mkProcessed(100, "LTSL", "BH", "IN", pipeline.ClassPublic, 90))
	}
	lat = CaseStudyLatency(ltsl, "BH", "IN", 10)
	if len(lat) != 1 || lat[0].Provider != "AMZN" {
		t.Fatalf("LTSL fold failed: %+v", lat)
	}
}

func TestProviderConsistency(t *testing.T) {
	f := testData(t)
	rows := CollectStore(f.store).ProviderComparison(10)
	if len(rows) < 4 {
		t.Fatalf("provider consistency rows = %d", len(rows))
	}
	var eu, af *ProviderConsistency
	for i := range rows {
		r := &rows[i]
		if r.MaxKS < 0 || r.MaxKS > 1 {
			t.Errorf("%v: KS out of range: %v", r.Continent, r.MaxKS)
		}
		for j := 1; j < len(r.Providers); j++ {
			if r.Providers[j].Box.Median < r.Providers[j-1].Box.Median {
				t.Errorf("%v: providers not sorted by median", r.Continent)
			}
		}
		switch r.Continent {
		case geo.EU:
			eu = r
		case geo.AF:
			af = r
		}
	}
	if eu == nil {
		t.Fatal("no EU row")
	}
	// §8: performance is consistent and comparable across providers in
	// developed continents.
	if eu.MedianSpreadMs > 25 {
		t.Errorf("EU provider median spread = %.1f ms, want tight", eu.MedianSpreadMs)
	}
	if len(eu.Providers) < 6 {
		t.Errorf("EU providers compared = %d", len(eu.Providers))
	}
	// In Asia, provider footprints differ wildly (Alibaba's Chinese
	// regions vs DigitalOcean's single Bangalore DC), so the spread
	// dwarfs Europe's (§8: developing regions are distance-dominated).
	var as *ProviderConsistency
	for i := range rows {
		if rows[i].Continent == geo.AS {
			as = &rows[i]
		}
	}
	if as == nil {
		t.Fatal("no AS row")
	}
	if as.MedianSpreadMs <= eu.MedianSpreadMs {
		t.Errorf("AS spread (%.1f) should exceed EU (%.1f)", as.MedianSpreadMs, eu.MedianSpreadMs)
	}
	_ = af
}

func TestPathFlattening(t *testing.T) {
	f := testData(t)
	rows := PathFlattening(f.processed)
	if len(rows) != 9 {
		t.Fatalf("flattening rows = %d", len(rows))
	}
	get := func(code string) Flattening {
		for _, r := range rows {
			if r.Provider == code {
				return r
			}
		}
		t.Fatalf("missing %s", code)
		return Flattening{}
	}
	// §2.1: traffic to hypergiants rides a flat Internet.
	for _, code := range []string{"AMZN", "GCP", "MSFT"} {
		r := get(code)
		if r.MeanASes > 2.7 {
			t.Errorf("%s mean AS-path length = %.2f, want flat (≈2)", code, r.MeanASes)
		}
	}
	// Small providers still live behind the hierarchy.
	for _, code := range []string{"VLTR", "BABA"} {
		r := get(code)
		if r.MeanASes < 3.0 {
			t.Errorf("%s mean AS-path length = %.2f, want hierarchical (≥3)", code, r.MeanASes)
		}
	}
	if get("GCP").MeanASes >= get("VLTR").MeanASes {
		t.Error("hypergiant paths must be flatter than public providers'")
	}
	for _, r := range rows {
		if r.Box.Min < 2 {
			t.Errorf("%s: path with fewer than 2 ASes", r.Provider)
		}
	}
}
