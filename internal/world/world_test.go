package world

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/asn"
	"repro/internal/cloud"
	"repro/internal/geo"
)

func testWorld(t *testing.T) *World {
	t.Helper()
	w, err := Build(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildDeterministic(t *testing.T) {
	w1 := testWorld(t)
	w2 := testWorld(t)
	if w1.Registry.Len() != w2.Registry.Len() {
		t.Fatalf("AS counts differ: %d vs %d", w1.Registry.Len(), w2.Registry.Len())
	}
	for _, a := range w1.Registry.All() {
		b, ok := w2.Registry.Lookup(a.Number)
		if !ok || b.Name != a.Name || b.Users != a.Users || b.Country != a.Country {
			t.Fatalf("AS %v differs across identical builds", a.Number)
		}
	}
	// Interconnect decisions must also be identical.
	for _, isp := range w1.AccessISPs("DE") {
		for _, code := range w1.Inventory.ProviderCodes() {
			if w1.Interconnect(isp.Number, code) != w2.Interconnect(isp.Number, code) {
				t.Fatalf("interconnect for %v/%s differs across builds", isp.Number, code)
			}
		}
	}
}

func TestEcosystemShape(t *testing.T) {
	w := testWorld(t)
	if got := len(w.Tier1s()); got != 12 {
		t.Errorf("tier1 count = %d", got)
	}
	if got := len(w.IXPs()); got != 16 {
		t.Errorf("ixp count = %d", got)
	}
	// Every country has at least one transit provider and two access
	// ISPs.
	for _, c := range geo.AllCountries() {
		if len(w.Tier2s(c.Code)) == 0 {
			t.Errorf("%s: no tier2", c.Code)
		}
		if len(w.AccessISPs(c.Code)) < 2 {
			t.Errorf("%s: only %d access ISPs", c.Code, len(w.AccessISPs(c.Code)))
		}
	}
	// The paper's named ISPs exist with their real ASNs.
	for _, n := range []asn.Number{3320, 3209, 6805, 6830, 8881, 2516, 2518, 4713, 17511, 17676, 5416, 51375} {
		a, ok := w.Registry.Lookup(n)
		if !ok || a.Type != asn.TypeAccess {
			t.Errorf("named ISP %v missing or wrong type", n)
		}
	}
	// Top-5 German ISPs by users are the named ones.
	de := w.AccessISPs("DE")
	if len(de) < 5 {
		t.Fatalf("DE access = %d", len(de))
	}
	if de[0].Number != 3320 {
		t.Errorf("largest German ISP = %v, want Deutsche Telekom", de[0].Number)
	}
}

func TestEveryISPReachesEveryRegion(t *testing.T) {
	w := testWorld(t)
	regions := w.Inventory.Regions()
	for _, c := range geo.AllCountries() {
		for _, isp := range w.AccessISPs(c.Code) {
			for _, r := range regions {
				path, kind, ok := w.CloudPath(isp, r)
				if !ok {
					t.Fatalf("%v (%s) cannot reach %s", isp.Number, c.Code, r.ID)
				}
				if path[0] != isp.Number || path[len(path)-1] != r.Provider.ASN {
					t.Fatalf("path %v does not span ISP→provider", path)
				}
				switch kind {
				case IcDirect, IcDirectIXP:
					if len(path) != 2 {
						t.Fatalf("direct path has %d ASes: %v", len(path), path)
					}
				case IcPrivateTransit:
					if len(path) != 3 {
						t.Fatalf("private path has %d ASes: %v", len(path), path)
					}
				case IcPublic:
					if len(path) < 3 {
						t.Fatalf("public path too short: %v (isp %v → %s)", path, isp.Number, r.ID)
					}
				}
			}
		}
	}
}

func TestOverridesApplied(t *testing.T) {
	w := testWorld(t)
	cases := []struct {
		isp  asn.Number
		code string
		want Interconnect
	}{
		{3320, "AMZN", IcDirect},         // DT → Amazon direct
		{3209, "DO", IcPublic},           // Vodafone → DO public (Fig 12a)
		{6805, "BABA", IcPublic},         // Telefonica → Alibaba public
		{4713, "AMZN", IcPrivateTransit}, // NTT → Amazon not direct (Fig 13a)
		{2516, "DO", IcPublic},           // DO strictly public in Asia
		{5416, "MSFT", IcDirect},         // Batelco → Microsoft direct (Fig 18a)
		{31452, "GCP", IcDirect},         // ZAIN → Google direct
		{3320, "IBM", IcDirectIXP},       // IBM exchanges at public IXPs
	}
	for _, c := range cases {
		if got := w.Interconnect(c.isp, c.code); got != c.want {
			t.Errorf("interconnect(%v, %s) = %v, want %v", c.isp, c.code, got, c.want)
		}
	}
}

func TestHypergiantsMostlyDirectInEU(t *testing.T) {
	w := testWorld(t)
	for _, code := range []string{"AMZN", "GCP", "MSFT"} {
		direct, total := 0, 0
		for _, c := range geo.CountriesIn(geo.EU) {
			for _, isp := range w.AccessISPs(c.Code) {
				total++
				if k := w.Interconnect(isp.Number, code); k == IcDirect || k == IcDirectIXP {
					direct++
				}
			}
		}
		if frac := float64(direct) / float64(total); frac < 0.55 {
			t.Errorf("%s direct fraction in EU = %.2f, want hypergiant-level", code, frac)
		}
	}
	// Small providers are mostly NOT direct.
	for _, code := range []string{"VLTR", "LIN", "ORCL"} {
		direct, total := 0, 0
		for _, c := range geo.AllCountries() {
			for _, isp := range w.AccessISPs(c.Code) {
				total++
				if k := w.Interconnect(isp.Number, code); k == IcDirect || k == IcDirectIXP {
					direct++
				}
			}
		}
		if frac := float64(direct) / float64(total); frac > 0.25 {
			t.Errorf("%s direct fraction globally = %.2f, want small", code, frac)
		}
	}
}

func TestCarrierAffinity(t *testing.T) {
	w := testWorld(t)
	ntt, _ := w.Registry.Lookup(4713) // NTT OCN (access, Japan)
	kddi, _ := w.Registry.Lookup(2516)
	// Japanese ISP hauling to an Indian DC rides TATA (AS6453); hauling
	// inside Japan rides NTT GIN (AS2914) — §6.2.
	if got := w.CarrierFor(kddi, "IN"); got != 6453 {
		t.Errorf("JP→IN carrier = %v, want TATA AS6453", got)
	}
	if got := w.CarrierFor(kddi, "JP"); got != 2914 {
		t.Errorf("JP→JP carrier = %v, want NTT AS2914", got)
	}
	if got := w.CarrierFor(ntt, "IN"); got != 6453 {
		t.Errorf("NTT→IN carrier = %v, want TATA AS6453", got)
	}
}

func TestCloudIngressSemantics(t *testing.T) {
	w := testWorld(t)
	de, _ := geo.CountryByCode("DE")
	var mumbai *cloud.Region
	for _, r := range w.Inventory.RegionsOf("AMZN") {
		if r.City == "Mumbai" {
			mumbai = r
		}
	}
	if mumbai == nil {
		t.Fatal("no Mumbai region")
	}
	direct := w.CloudIngress(IcDirect, de.Centroid, mumbai).Loc
	public := w.CloudIngress(IcPublic, de.Centroid, mumbai)
	if geo.DistanceKm(de.Centroid, direct) >= geo.DistanceKm(de.Centroid, public.Loc) {
		t.Errorf("direct ingress (%v) should be closer to the VP than public ingress (%v)", direct, public)
	}
	if public != (PoP{Loc: mumbai.Loc, Country: mumbai.Country}) {
		t.Errorf("public ingress should be the datacenter itself, got %v", public)
	}
	private := w.CloudIngress(IcPrivateTransit, de.Centroid, mumbai).Loc
	if geo.DistanceKm(de.Centroid, private) > geo.DistanceKm(de.Centroid, mumbai.Loc)+1 {
		t.Errorf("private ingress should not overshoot the datacenter")
	}
}

// TestCloudIngressCountry pins the country CloudIngress hands back to
// the one a provider-wide nearest-PoP search from the ingress point
// finds, for every region, interconnect kind and country centroid as
// the vantage point: the simulator reads the ingress country from the
// returned PoP instead of searching again.
func TestCloudIngressCountry(t *testing.T) {
	w := testWorld(t)
	for _, r := range w.Inventory.Regions() {
		for _, c := range geo.AllCountries() {
			for _, kind := range []Interconnect{IcDirect, IcDirectIXP, IcPrivateTransit, IcPublic} {
				got := w.CloudIngress(kind, c.Centroid, r)
				want := r.Country
				if pop, ok := w.NearestPoP(r.Provider.ASN, got.Loc); ok && pop.Loc == got.Loc {
					want = pop.Country
				}
				if got.Country != want {
					t.Fatalf("%s from %s (%v): ingress country %s, nearest PoP says %s", r.ID, c.Code, kind, got.Country, want)
				}
			}
		}
	}
}

// TestRegionIPIndex pins the index behind RegionIP to its definition:
// host .10 of the (i+1)-th /24 of the provider's block for the
// provider's i-th region.
func TestRegionIPIndex(t *testing.T) {
	w := testWorld(t)
	for _, prov := range w.Inventory.Providers() {
		p, ok := w.prefixes[prov.ASN]
		if !ok {
			t.Fatalf("no prefix for %s", prov.Code)
		}
		for i, r := range w.Inventory.RegionsOf(prov.Code) {
			if got, want := w.RegionIP(r), p.Nth(uint64(i+1)*256+10); got != want {
				t.Fatalf("RegionIP(%s) = %v, want %v", r.ID, got, want)
			}
		}
	}
	if ip := w.RegionIP(&cloud.Region{ID: "nope-xx-nowhere", Provider: w.Inventory.Providers()[0]}); ip != 0 {
		t.Errorf("unknown region resolved to %v", ip)
	}
}

func TestAddressing(t *testing.T) {
	w := testWorld(t)
	dt, _ := w.Registry.Lookup(3320)
	prefix, ok := w.prefixes[3320]
	if !ok {
		t.Fatal("no prefix for DT")
	}
	ip := w.RouterIP(3320, 5)
	if !prefix.Contains(ip) {
		t.Errorf("router IP %v outside prefix %v", ip, prefix)
	}
	if got, ok := w.Registry.ResolveIP(ip); !ok || got != dt {
		t.Errorf("router IP resolves to %v, want DT", got)
	}
	// Probe IPs resolve to the ISP too, and differ per index.
	p0, p1 := w.ProbeIP(3320, 0), w.ProbeIP(3320, 1)
	if p0 == p1 {
		t.Error("probe IPs must differ")
	}
	if got, ok := w.Registry.ResolveIP(p0); !ok || got != dt {
		t.Error("probe IP must resolve to its ISP")
	}
	// Region VM IPs resolve to the provider and are unique per region.
	seen := map[string]bool{}
	for _, r := range w.Inventory.Regions() {
		ip := w.RegionIP(r)
		if ip == 0 {
			t.Fatalf("no VM IP for %s", r.ID)
		}
		if seen[ip.String()] {
			t.Fatalf("duplicate VM IP %v", ip)
		}
		seen[ip.String()] = true
		a, ok := w.Registry.ResolveIP(ip)
		if !ok || a.Number != r.Provider.ASN {
			t.Fatalf("VM IP %v of %s resolves to %v", ip, r.ID, a)
		}
	}
	if w.RouterIP(99999999, 0) != 0 {
		t.Error("unknown AS should yield zero IP")
	}
}

func TestPoPFootprints(t *testing.T) {
	w := testWorld(t)
	// Every country is served by at least two Tier-1s.
	for _, c := range geo.AllCountries() {
		n := 0
		for _, t1 := range w.Tier1s() {
			if w.hasPoPIn(t1.Number, c.Code) {
				n++
			}
		}
		if n < 2 {
			t.Errorf("%s: only %d tier-1 PoPs", c.Code, n)
		}
	}
	// Hypergiants have many more PoPs than their region count; public
	// providers only sit at their datacenters.
	gcp, _ := w.Inventory.Provider("GCP")
	vltr, _ := w.Inventory.Provider("VLTR")
	if len(w.pops[gcp.ASN]) <= len(w.Inventory.RegionsOf("GCP")) {
		t.Error("GCP should have edge PoPs beyond its regions")
	}
	if len(w.pops[vltr.ASN]) != len(w.Inventory.RegionsOf("VLTR")) {
		t.Error("Vultr PoPs should be exactly its datacenters")
	}
	// Alibaba has in-country presence at home but not in, say, Germany.
	baba, _ := w.Inventory.Provider("BABA")
	if !w.hasPoPIn(baba.ASN, "CN") {
		t.Error("Alibaba must have PoPs in China")
	}
	if w.hasPoPIn(baba.ASN, "BD") {
		t.Error("Alibaba should not have eyeball PoPs outside home/DC countries")
	}
}

func TestNearestPoPAndIXP(t *testing.T) {
	w := testWorld(t)
	de, _ := geo.CountryByCode("DE")
	ix := w.NearestIXP(de.Centroid)
	if ix == nil || ix.Name != "DE-CIX Frankfurt" {
		t.Errorf("nearest IXP to Germany = %v", ix)
	}
	if _, ok := w.IXPByASN(ix.ASN); !ok {
		t.Error("IXPByASN miss")
	}
	if _, ok := w.IXPByASN(12345678); ok {
		t.Error("unknown IXP ASN should miss")
	}
	gcp, _ := w.Inventory.Provider("GCP")
	pop, ok := w.NearestPoP(gcp.ASN, de.Centroid)
	if !ok {
		t.Fatal("no GCP PoP")
	}
	if geo.DistanceKm(de.Centroid, pop.Loc) > 800 {
		t.Errorf("GCP PoP for Germany is %0.f km away", geo.DistanceKm(de.Centroid, pop.Loc))
	}
	if _, ok := w.NearestPoP(987654321, de.Centroid); ok {
		t.Error("unknown AS should have no PoPs")
	}
	isp := w.AccessISPs("DE")[0]
	if got := w.IXPForPeering(isp); got == nil || got.Name != "DE-CIX Frankfurt" {
		t.Errorf("IXPForPeering(DE) = %v", got)
	}
}

func TestUserCoverage(t *testing.T) {
	w := testWorld(t)
	all := map[asn.Number]bool{}
	for _, c := range geo.AllCountries() {
		for _, isp := range w.AccessISPs(c.Code) {
			all[isp.Number] = true
		}
	}
	if cov := w.UserCoverageOf(all); cov < 0.999 {
		t.Errorf("full coverage = %v", cov)
	}
}

func TestPathInflation(t *testing.T) {
	// Undersea-cable shape (§4.3): Egypt reaches Europe on a much lower
	// inflation than South Africa; Bolivia reaches NA at a lower
	// inflation than Brazil.
	if PathInflation("EG", "DE") >= PathInflation("EG", "ZA") {
		t.Error("Egypt→EU should be better provisioned than Egypt→ZA")
	}
	if PathInflation("BO", "US") >= PathInflation("BO", "BR") {
		t.Error("Bolivia→NA should be better provisioned than Bolivia→BR")
	}
	if PathInflation("KE", "ZA") >= PathInflation("EG", "ZA") {
		t.Error("Kenya has direct east-coast cables to ZA")
	}
	// Intra-EU is the best-provisioned region.
	if PathInflation("DE", "GB") >= PathInflation("JP", "IN") {
		t.Error("intra-EU should beat JP→IN")
	}
	// Unknown countries fall back to a sane default.
	if f := PathInflation("ZZ", "QQ"); f != 1.8 {
		t.Errorf("fallback inflation = %v", f)
	}
	if PrivateWANInflation >= PathInflation("DE", "GB") {
		t.Error("private WAN must beat every public path")
	}
}

func TestInterconnectStrings(t *testing.T) {
	if IcDirect.String() != "direct" || IcDirectIXP.String() != "1 IXP" ||
		IcPrivateTransit.String() != "1 AS" || IcPublic.String() != "2+ AS" ||
		Interconnect(9).String() != "?" {
		t.Error("interconnect labels wrong")
	}
}

func TestRouterIPSmallBlocks(t *testing.T) {
	// Regression: IXP peering LANs are /24s; RouterIP must stay inside
	// them for any index instead of panicking.
	w := testWorld(t)
	for _, ix := range w.IXPs() {
		for _, idx := range []int{0, 255, 787, 4095, 1 << 20, -3} {
			ip := w.RouterIP(ix.ASN, idx)
			if ip == 0 {
				t.Fatalf("%s: no router IP", ix.Name)
			}
			if !ix.Prefix.Contains(ip) {
				t.Fatalf("%s: router IP %v escapes %v (idx %d)", ix.Name, ip, ix.Prefix, idx)
			}
		}
	}
}

// TestCrossSeedInvariants builds several worlds and checks the
// structural invariants hold regardless of seed: disjoint prefix
// allocations, sane interconnect policies, full reachability on a
// sample, and PoP placement consistency.
func TestCrossSeedInvariants(t *testing.T) {
	for _, seed := range []int64{2, 17, 123456} {
		w, err := Build(Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Prefix disjointness across all ASes.
		type entry struct {
			n asn.Number
			p string
		}
		var prefixes []entry
		for _, a := range w.Registry.All() {
			for _, p := range a.Prefixes {
				prefixes = append(prefixes, entry{a.Number, p.String()})
			}
		}
		seen := map[string]asn.Number{}
		for _, e := range prefixes {
			if other, dup := seen[e.p]; dup {
				t.Fatalf("seed %d: prefix %s announced by %v and %v", seed, e.p, e.n, other)
			}
			seen[e.p] = e.n
		}
		// Sampled reachability: a handful of ISPs reach a handful of
		// regions with kind-consistent path lengths.
		regions := w.Inventory.Regions()
		for _, cc := range []string{"DE", "JP", "BR", "EG"} {
			isps := w.AccessISPs(cc)
			if len(isps) == 0 {
				t.Fatalf("seed %d: no ISPs in %s", seed, cc)
			}
			for _, r := range []int{0, 50, 100, 190} {
				path, kind, ok := w.CloudPath(isps[0], regions[r])
				if !ok {
					t.Fatalf("seed %d: %s unreachable from %s", seed, regions[r].ID, cc)
				}
				switch kind {
				case IcDirect, IcDirectIXP:
					if len(path) != 2 {
						t.Fatalf("seed %d: direct path length %d", seed, len(path))
					}
				case IcPrivateTransit:
					if len(path) != 3 {
						t.Fatalf("seed %d: private path length %d", seed, len(path))
					}
				default:
					if len(path) < 4 {
						t.Fatalf("seed %d: public path %v too short", seed, path)
					}
				}
			}
		}
		// Every AS with a PoP list places its first PoP in a known
		// country.
		for _, a := range w.Registry.All() {
			for _, pop := range w.pops[a.Number] {
				if _, ok := geo.CountryByCode(pop.Country); !ok {
					t.Fatalf("seed %d: %v has a PoP in unknown country %q", seed, a.Number, pop.Country)
				}
				if !pop.Loc.Valid() {
					t.Fatalf("seed %d: %v has an invalid PoP location", seed, a.Number)
				}
			}
		}
		// Named case-study overrides hold under every seed.
		if w.Interconnect(3320, "AMZN") != IcDirect || w.Interconnect(2516, "DO") != IcPublic {
			t.Fatalf("seed %d: overrides not applied", seed)
		}
	}
}

// linearNearestPoP is NearestPoP as a plain scan, the reference the
// index must reproduce: the first PoP of least DistanceKm.
func linearNearestPoP(pops []PoP, p geo.Point) (PoP, bool) {
	if len(pops) == 0 {
		return PoP{}, false
	}
	best, bestD := pops[0], geo.DistanceKm(p, pops[0].Loc)
	for _, cand := range pops[1:] {
		if d := geo.DistanceKm(p, cand.Loc); d < bestD {
			best, bestD = cand, d
		}
	}
	return best, true
}

// nearQueries returns each PoP's own location, then n points drawn to
// stress the index: uniform over the globe, within 1e-9° to 1° of a
// PoP, and on the great-circle midpoint of two PoPs, where the two tie.
func nearQueries(rng *rand.Rand, pops []PoP, n int) []geo.Point {
	qs := make([]geo.Point, 0, len(pops)+n)
	for _, pop := range pops {
		qs = append(qs, pop.Loc)
	}
	for i := 0; i < n; i++ {
		a, b := pops[rng.Intn(len(pops))].Loc, pops[rng.Intn(len(pops))].Loc
		switch i % 3 {
		case 0:
			qs = append(qs, geo.Point{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180})
		case 1:
			r := math.Pow(10, -9*rng.Float64())
			qs = append(qs, geo.Point{Lat: a.Lat + (rng.Float64()-0.5)*r, Lon: a.Lon + (rng.Float64()-0.5)*r})
		default:
			qs = append(qs, geo.Midpoint(a, b))
		}
	}
	return qs
}

// TestNearestPoPMatchesLinearScan checks the exact index against the
// linear scan for every AS of two worlds, for the exchanges, and for a
// hand-built AS whose duplicated PoP coordinates make the earliest PoP
// win a tie and whose PoPs a centimetre apart keep chords near zero.
func TestNearestPoPMatchesLinearScan(t *testing.T) {
	queries := 0
	check := func(w *World, n asn.Number, rng *rand.Rand) {
		t.Helper()
		pops := w.pops[n]
		for _, q := range nearQueries(rng, pops, 1000) {
			queries++
			got, _ := w.NearestPoP(n, q)
			if want, _ := linearNearestPoP(pops, q); got != want {
				t.Fatalf("seed %d AS %v: NearestPoP(%v) = %+v, linear scan %+v", w.Config.Seed, n, q, got, want)
			}
		}
	}
	for _, seed := range []int64{1, 7} {
		w := MustBuild(Config{Seed: seed})
		rng := rand.New(rand.NewSource(seed))
		for _, a := range w.Registry.All() {
			check(w, a.Number, rng)
		}
		ixps := make([]PoP, len(w.ixps))
		for i, x := range w.ixps {
			ixps[i] = PoP{Loc: x.Loc, Country: x.Name}
		}
		for _, q := range nearQueries(rng, ixps, 1000) {
			queries++
			want, _ := linearNearestPoP(ixps, q)
			if got := w.NearestIXP(q); got.Name != want.Country {
				t.Fatalf("seed %d: NearestIXP(%v) = %s, linear scan %s", seed, q, got.Name, want.Country)
			}
		}
		for _, c := range geo.AllCountries() {
			want, _ := linearNearestPoP(ixps, c.Centroid)
			if got := w.IXPForPeering(&asn.AS{Country: c.Code}); got.Name != want.Country {
				t.Fatalf("seed %d: IXPForPeering(%s) = %s, linear scan %s", seed, c.Code, got.Name, want.Country)
			}
		}
	}

	w := testWorld(t)
	const dup = asn.Number(4_000_000)
	fra, lon := geo.Point{Lat: 50.11, Lon: 8.68}, geo.Point{Lat: 51.51, Lon: -0.13}
	w.pops[dup] = []PoP{{fra, "F1"}, {lon, "L1"}, {fra, "F2"}, {lon, "L2"}, {geo.Midpoint(fra, lon), "M"},
		{geo.Point{Lat: fra.Lat + 1e-7, Lon: fra.Lon}, "F3"}} // 1 cm from F1
	w.index()
	for q, want := range map[geo.Point]string{fra: "F1", lon: "L1"} {
		if got, _ := w.NearestPoP(dup, q); got.Country != want {
			t.Errorf("tie at %v won by %s, want the earliest PoP %s", q, got.Country, want)
		}
	}
	check(w, dup, rand.New(rand.NewSource(3)))
	if _, ok := w.NearestPoP(dup+1, fra); ok {
		t.Error("an AS without PoPs has a nearest PoP")
	}
	t.Logf("%d queries match the linear scan", queries)
}

func BenchmarkNearestPoP(b *testing.B) {
	w := MustBuild(Config{Seed: 1})
	gcp, _ := w.Inventory.Provider("GCP")
	rng := rand.New(rand.NewSource(1))
	qs := nearQueries(rng, w.pops[gcp.ASN], 1024)
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.NearestPoP(gcp.ASN, qs[i%len(qs)])
		}
	})
	b.Run("linear-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linearNearestPoP(w.pops[gcp.ASN], qs[i%len(qs)])
		}
	})
}
