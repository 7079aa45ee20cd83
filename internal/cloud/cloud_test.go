package cloud

import (
	"strings"
	"testing"

	"repro/internal/geo"
)

func TestTable1Counts(t *testing.T) {
	inv := NewInventory()
	want := map[string][6]int{ // EU NA SA AS AF OC
		"AMZN": {6, 6, 1, 6, 1, 1},
		"GCP":  {6, 10, 1, 8, 0, 1},
		"MSFT": {14, 10, 1, 15, 2, 4},
		"DO":   {4, 6, 0, 1, 0, 0},
		"BABA": {2, 2, 0, 16, 0, 1},
		"VLTR": {4, 9, 0, 1, 0, 1},
		"LIN":  {2, 5, 0, 3, 0, 1},
		"LTSL": {4, 4, 0, 4, 0, 1},
		"ORCL": {4, 4, 1, 7, 0, 2},
		"IBM":  {6, 6, 0, 1, 0, 0},
	}
	conts := []geo.Continent{geo.EU, geo.NA, geo.SA, geo.AS, geo.AF, geo.OC}
	got := inv.CountByContinent()
	for code, w := range want {
		for i, cont := range conts {
			if got[code][cont] != w[i] {
				t.Errorf("%s %v: got %d datacenters, want %d", code, cont, got[code][cont], w[i])
			}
		}
	}
	if n := len(inv.Regions()); n != 195 {
		t.Errorf("total regions = %d, want 195", n)
	}
	// Continent totals from Table 1.
	totals := map[geo.Continent]int{geo.EU: 52, geo.NA: 62, geo.SA: 4, geo.AS: 62, geo.AF: 3, geo.OC: 12}
	for cont, w := range totals {
		if n := len(inv.RegionsIn(cont)); n != w {
			t.Errorf("regions in %v = %d, want %d", cont, n, w)
		}
	}
}

func TestProviders(t *testing.T) {
	inv := NewInventory()
	if n := len(inv.Providers()); n != 10 {
		t.Fatalf("providers = %d, want 10 (Table 1 rows)", n)
	}
	backbones := map[string]Backbone{
		"AMZN": BackbonePrivate, "GCP": BackbonePrivate, "MSFT": BackbonePrivate,
		"DO": BackboneSemi, "BABA": BackboneSemi, "IBM": BackboneSemi,
		"VLTR": BackbonePublic, "LIN": BackbonePublic,
		"LTSL": BackbonePrivate, "ORCL": BackbonePrivate,
	}
	for code, want := range backbones {
		p, ok := inv.Provider(code)
		if !ok {
			t.Fatalf("missing provider %s", code)
		}
		if p.Backbone != want {
			t.Errorf("%s backbone = %v, want %v", code, p.Backbone, want)
		}
		if p.ASN == 0 {
			t.Errorf("%s has no ASN", code)
		}
	}
	if _, ok := inv.Provider("NOPE"); ok {
		t.Error("unknown provider should miss")
	}
	seen := map[string]bool{}
	for _, c := range inv.ProviderCodes() {
		if seen[c] {
			t.Errorf("duplicate provider code %s", c)
		}
		seen[c] = true
	}
}

func TestRegionsWellFormed(t *testing.T) {
	inv := NewInventory()
	ids := map[string]bool{}
	for _, r := range inv.Regions() {
		if ids[r.ID] {
			t.Errorf("duplicate region ID %s", r.ID)
		}
		ids[r.ID] = true
		if !r.Loc.Valid() {
			t.Errorf("%s: invalid location %v", r.ID, r.Loc)
		}
		c, ok := geo.CountryByCode(r.Country)
		if !ok {
			t.Errorf("%s: unknown country %s", r.ID, r.Country)
			continue
		}
		if c.Continent != r.Continent {
			t.Errorf("%s: continent %v does not match country %s (%v)", r.ID, r.Continent, r.Country, c.Continent)
		}
		if !strings.HasPrefix(r.ID, lower(r.Provider.Code)) {
			t.Errorf("%s: ID does not begin with provider code", r.ID)
		}
		if r.String() != r.ID {
			t.Errorf("String() = %q, want %q", r.String(), r.ID)
		}
		// Datacenter coordinates should sit near the country centroid
		// (same country, so within ~3500 km even for US/CN/AU).
		if d := geo.DistanceKm(r.Loc, c.Centroid); d > 3500 {
			t.Errorf("%s: %.0f km from its country centroid", r.ID, d)
		}
	}
}

func TestAfricaDatacentersAreInTheSouth(t *testing.T) {
	// §4.1: the only three African DCs are colocated near South Africa,
	// which is what makes northern-African latency so poor.
	inv := NewInventory()
	af := inv.RegionsIn(geo.AF)
	if len(af) != 3 {
		t.Fatalf("AF regions = %d, want 3", len(af))
	}
	for _, r := range af {
		if r.Country != "ZA" {
			t.Errorf("African region %s not in ZA", r.ID)
		}
	}
}

func TestRegionsOf(t *testing.T) {
	inv := NewInventory()
	if n := len(inv.RegionsOf("MSFT")); n != 46 {
		t.Errorf("MSFT regions = %d, want 46", n)
	}
	if n := len(inv.RegionsOf("NOPE")); n != 0 {
		t.Errorf("unknown provider regions = %d", n)
	}
	for _, r := range inv.RegionsOf("BABA") {
		if r.Provider.Code != "BABA" {
			t.Errorf("RegionsOf returned foreign region %s", r.ID)
		}
	}
}

func TestPolicyFor(t *testing.T) {
	inv := NewInventory()
	gcp, _ := inv.Provider("GCP")
	eu := gcp.PolicyFor("DE", geo.EU)
	if eu.Direct < 0.5 {
		t.Errorf("GCP EU direct policy = %v, want hypergiant-level", eu.Direct)
	}
	af := gcp.PolicyFor("KE", geo.AF)
	if af.Direct >= eu.Direct {
		t.Error("default policy should be weaker than EU policy")
	}
	baba, _ := inv.Provider("BABA")
	inside := baba.PolicyFor("CN", geo.AS)
	outside := baba.PolicyFor("JP", geo.AS)
	if inside.Direct <= outside.Direct {
		t.Errorf("Alibaba should peer broadly at home: CN=%v JP=%v", inside.Direct, outside.Direct)
	}
	if outside.Direct > 0.1 {
		t.Errorf("Alibaba islands outside CN: direct = %v", outside.Direct)
	}
	do, _ := inv.Provider("DO")
	if pol := do.PolicyFor("JP", geo.AS); pol.Direct != 0 {
		t.Errorf("DO in Asia should have no direct peering, got %v", pol.Direct)
	}
	// Policy probabilities must be valid.
	for _, p := range inv.Providers() {
		for _, cont := range geo.Continents() {
			pol := p.PolicyFor("US", cont)
			if pol.Direct < 0 || pol.PrivateTransit < 0 || pol.Direct+pol.PrivateTransit > 1 {
				t.Errorf("%s %v: invalid policy %+v", p.Code, cont, pol)
			}
		}
	}
}

func TestFigureProviderCodes(t *testing.T) {
	codes := FigureProviderCodes()
	if len(codes) != 9 {
		t.Fatalf("figure providers = %d, want 9", len(codes))
	}
	for _, c := range codes {
		if c == "LTSL" {
			t.Error("Lightsail must not appear in peering figures")
		}
	}
	inv := NewInventory()
	for _, c := range codes {
		if _, ok := inv.Provider(c); !ok {
			t.Errorf("figure provider %s not in inventory", c)
		}
	}
}

func TestBackboneString(t *testing.T) {
	if BackbonePrivate.String() != "Private" || BackboneSemi.String() != "Semi" ||
		BackbonePublic.String() != "Public" || Backbone(9).String() != "?" {
		t.Error("backbone strings wrong")
	}
}
