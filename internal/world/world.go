// Package world synthesizes the Internet the study measures over: a
// country-structured AS ecosystem (access ISPs, national transit,
// global Tier-1 carriers), the exchanges they meet at, the ten cloud
// services of Table 1 with their WAN points of presence, and the
// interconnection decisions between every serving ISP and every cloud
// provider.
//
// The real study measured over the production Internet; this package is
// the substitution documented in DESIGN.md. Everything is deterministic
// given a seed, so experiments reproduce bit-for-bit.
package world

import (
	"fmt"
	"math/rand"

	"repro/internal/asn"
	"repro/internal/bgp"
	"repro/internal/cloud"
	"repro/internal/geo"
	"repro/internal/netaddr"
)

// PoP is a network point of presence.
type PoP struct {
	Loc     geo.Point
	Country string
}

// IXP is an Internet exchange point (the CAIDA IXP dataset equivalent).
type IXP struct {
	ASN     asn.Number
	Name    string
	Country string
	Loc     geo.Point
	Prefix  netaddr.Prefix
}

// Config parameterizes world synthesis.
type Config struct {
	// Seed drives all randomized decisions. The same seed yields an
	// identical world.
	Seed int64
	// ForcePublicPeering is an ablation switch: every <ISP, provider>
	// pair rides the public Internet, erasing the paper's peering
	// fabric (used by the ablation benches to show what direct peering
	// buys).
	ForcePublicPeering bool
}

const (
	// tier1AttachProb is the probability a synthetic access ISP buys
	// transit from a Tier-1 directly.
	tier1AttachProb = 0.35
	// ixpDirectProb is the probability a policy-chosen direct peering
	// is established over a public IXP fabric rather than a PNI (IBM
	// uses 0.35, see §6.2).
	ixpDirectProb = 0.10
)

type icKey struct {
	isp      asn.Number
	provider string
}

// World is the fully built synthetic Internet.
type World struct {
	Config    Config
	Inventory *cloud.Inventory
	Registry  *asn.Registry
	Graph     *bgp.Graph

	tier1s          []*asn.AS
	tier2ByCountry  map[string][]*asn.AS
	accessByCountry map[string][]*asn.AS
	ixps            []*IXP
	pops            map[asn.Number][]PoP
	prefixes        map[asn.Number]netaddr.Prefix
	ic              map[icKey]Interconnect
	ixpByASN        map[asn.Number]*IXP
	regionIPs       map[string]netaddr.IP // region ID → VM endpoint address

	// Built by index once construction is done; read-only afterwards.
	popSets      map[asn.Number]popSet
	ixpNear      geo.Index
	ixpByCountry map[string]*IXP // country → the exchange IXPForPeering picks
}

// popSet is one AS's PoPs with the index NearestPoP searches.
type popSet struct {
	pops []PoP
	near geo.Index
}

// Build synthesizes a world from the configuration.
func Build(cfg Config) (*World, error) {
	w := &World{
		Config:          cfg,
		Inventory:       cloud.NewInventory(),
		Registry:        &asn.Registry{},
		Graph:           &bgp.Graph{},
		tier2ByCountry:  make(map[string][]*asn.AS),
		accessByCountry: make(map[string][]*asn.AS),
		pops:            make(map[asn.Number][]PoP),
		prefixes:        make(map[asn.Number]netaddr.Prefix),
		ic:              make(map[icKey]Interconnect),
		ixpByASN:        make(map[asn.Number]*IXP),
		regionIPs:       make(map[string]netaddr.IP),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	if err := w.buildTier1s(rng); err != nil {
		return nil, err
	}
	if err := w.buildIXPs(); err != nil {
		return nil, err
	}
	if err := w.buildCountries(rng); err != nil {
		return nil, err
	}
	if err := w.buildClouds(rng); err != nil {
		return nil, err
	}
	w.index()
	return w, nil
}

// index builds the tables the simulator reads for every plan: a
// nearest-point index per AS and over the exchanges, and each country's
// peering exchange.
func (w *World) index() {
	w.popSets = make(map[asn.Number]popSet, len(w.pops))
	for n, pops := range w.pops {
		locs := make([]geo.Point, len(pops))
		for i, p := range pops {
			locs[i] = p.Loc
		}
		w.popSets[n] = popSet{pops: pops, near: geo.NewIndex(locs)}
	}
	locs := make([]geo.Point, len(w.ixps))
	for i, x := range w.ixps {
		locs[i] = x.Loc
	}
	w.ixpNear = geo.NewIndex(locs)
	w.ixpByCountry = make(map[string]*IXP)
	for _, c := range geo.AllCountries() {
		w.ixpByCountry[c.Code] = w.NearestIXP(c.Centroid)
	}
}

// MustBuild is Build for tests and examples; it panics on error.
func MustBuild(cfg Config) *World {
	w, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return w
}

// ---- accessors ----

// Tier1s returns the global carriers.
func (w *World) Tier1s() []*asn.AS { return w.tier1s }

// AccessISPs returns the serving ISPs of a country, largest first.
func (w *World) AccessISPs(country string) []*asn.AS {
	return w.accessByCountry[country]
}

// Tier2s returns the national transit providers of a country.
func (w *World) Tier2s(country string) []*asn.AS { return w.tier2ByCountry[country] }

// IXPs returns all exchanges.
func (w *World) IXPs() []*IXP { return w.ixps }

// IXPByASN returns the exchange with the given peering-LAN ASN.
func (w *World) IXPByASN(n asn.Number) (*IXP, bool) {
	x, ok := w.ixpByASN[n]
	return x, ok
}

// NearestIXP returns the exchange closest to p.
func (w *World) NearestIXP(p geo.Point) *IXP {
	if i := w.ixpNear.Nearest(p); i >= 0 {
		return w.ixps[i]
	}
	return nil
}

// NearestPoP returns the AS's PoP closest to p. ok is false when the AS
// has no PoPs.
func (w *World) NearestPoP(n asn.Number, p geo.Point) (PoP, bool) {
	set := w.popSets[n]
	if i := set.near.Nearest(p); i >= 0 {
		return set.pops[i], true
	}
	return PoP{}, false
}

// RouterIP returns a deterministic router address inside the AS's
// block. Distinct indexes yield distinct addresses within a pool of up
// to 4096 routers (fewer for small blocks such as IXP peering LANs).
func (w *World) RouterIP(n asn.Number, idx int) netaddr.IP {
	p, ok := w.prefixes[n]
	if !ok {
		return 0
	}
	if idx < 0 {
		idx = -idx
	}
	pool := uint64(4096)
	base := uint64(16)
	if avail := p.NumAddresses(); base+pool > avail {
		base = 1
		pool = avail - base
	}
	return p.Nth(base + uint64(idx)%pool)
}

// ProbeIP returns a deterministic public address for the i-th probe
// homed in the given access ISP.
func (w *World) ProbeIP(isp asn.Number, i int) netaddr.IP {
	p, ok := w.prefixes[isp]
	if !ok {
		return 0
	}
	span := p.NumAddresses() - 8192
	return p.Nth(8192 + uint64(i)%span)
}

// RegionIP returns the address of the public VM endpoint in a region
// (the CloudHarmony-style hostname target, §3.1): host .10 of the
// (i+1)-th /24 of the provider's block for the provider's i-th region.
// It is zero for a region the inventory does not hold.
func (w *World) RegionIP(r *cloud.Region) netaddr.IP { return w.regionIPs[r.ID] }

// Interconnect returns the interconnection kind chosen for a
// <serving ISP, provider> pair.
func (w *World) Interconnect(isp asn.Number, providerCode string) Interconnect {
	return w.ic[icKey{isp, providerCode}]
}

// CarrierFor returns the transit carrier that hauls a private
// interconnect between the ISP and a datacenter in regionCountry. The
// choice prefers a carrier headquartered in the destination country
// (TATA for Indian DCs), then one in the ISP's country (NTT for
// Japanese ISPs), then the ISP's first Tier-1, then its Tier-2.
func (w *World) CarrierFor(isp *asn.AS, regionCountry string) asn.Number {
	var tier1s, others []asn.Number
	for _, p := range w.Graph.Providers(isp.Number) {
		if a, ok := w.Registry.Lookup(p); ok && a.Type == asn.TypeTier1 {
			tier1s = append(tier1s, p)
		} else {
			others = append(others, p)
		}
	}
	pick := func(country string) (asn.Number, bool) {
		for _, n := range tier1s {
			if a, ok := w.Registry.Lookup(n); ok && a.Country == country {
				return n, true
			}
		}
		return 0, false
	}
	if n, ok := pick(regionCountry); ok {
		return n
	}
	if n, ok := pick(isp.Country); ok {
		return n
	}
	if len(tier1s) > 0 {
		return tier1s[0]
	}
	if len(others) > 0 {
		return others[0]
	}
	return 0
}

// CloudPath returns the AS-level path tenant traffic takes from the
// serving ISP to the given region, together with the interconnection
// kind realized. ok is false when the ISP cannot reach the provider.
func (w *World) CloudPath(isp *asn.AS, region *cloud.Region) ([]asn.Number, Interconnect, bool) {
	prov := region.Provider
	kind := w.Interconnect(isp.Number, prov.Code)
	switch kind {
	case IcDirect, IcDirectIXP:
		return []asn.Number{isp.Number, prov.ASN}, kind, true
	case IcPrivateTransit:
		carrier := w.CarrierFor(isp, region.Country)
		if carrier == 0 {
			break // fall through to public
		}
		return []asn.Number{isp.Number, carrier, prov.ASN}, kind, true
	}
	path, ok := w.Graph.Path(isp.Number, prov.ASN)
	if ok && len(path) < 4 {
		// The best valley-free route happens to be short (the ISP's own
		// Tier-1 carries the provider), but this pair exchanges no
		// peering paperwork: tenant traffic takes the full hierarchical
		// route through the regional transit and the Tier-1 mesh.
		if detour, dok := w.publicDetour(isp, prov.ASN); dok {
			path = detour
		}
	}
	return path, IcPublic, ok
}

// publicDetour builds the canonical public-Internet route
// ISP → national transit → Tier-1 (→ peer Tier-1) → provider.
func (w *World) publicDetour(isp *asn.AS, prov asn.Number) ([]asn.Number, bool) {
	var tier2 asn.Number
	for _, p := range w.Graph.Providers(isp.Number) {
		if a, ok := w.Registry.Lookup(p); ok && a.Type == asn.TypeTier2 {
			tier2 = p
			break
		}
	}
	if tier2 == 0 {
		return nil, false
	}
	provUp := map[asn.Number]bool{}
	for _, p := range w.Graph.Providers(prov) {
		provUp[p] = true
	}
	provPeer := map[asn.Number]bool{}
	for _, p := range w.Graph.Peers(prov) {
		provPeer[p] = true
	}
	// Prefer a Tier-1 that serves both the national transit and the
	// provider; otherwise cross the Tier-1 peering mesh.
	var first asn.Number
	for _, t1 := range w.Graph.Providers(tier2) {
		a, ok := w.Registry.Lookup(t1)
		if !ok || a.Type != asn.TypeTier1 {
			continue
		}
		if provUp[t1] || provPeer[t1] {
			return []asn.Number{isp.Number, tier2, t1, prov}, true
		}
		if first == 0 {
			first = t1
		}
	}
	if first == 0 {
		return nil, false
	}
	for _, peer := range w.Graph.Peers(first) {
		if provUp[peer] || provPeer[peer] {
			return []asn.Number{isp.Number, tier2, first, peer, prov}, true
		}
	}
	return nil, false
}

// CloudIngress returns where tenant traffic enters the provider's
// network on its way from vpLoc to the region, per §6.2: direct paths
// ingress the WAN close to the vantage point, private interconnects
// ingress at an edge PoP part-way, and public paths only touch the
// provider at the datacenter itself. The result is the WAN PoP chosen,
// or the datacenter's own location and country.
func (w *World) CloudIngress(kind Interconnect, vpLoc geo.Point, region *cloud.Region) PoP {
	switch kind {
	case IcDirect, IcDirectIXP:
		if pop, ok := w.NearestPoP(region.Provider.ASN, vpLoc); ok {
			return pop
		}
	case IcPrivateTransit:
		mid := geo.Midpoint(vpLoc, region.Loc)
		if pop, ok := w.NearestPoP(region.Provider.ASN, mid); ok {
			return pop
		}
	}
	return PoP{Loc: region.Loc, Country: region.Country}
}

// IXPForPeering returns the exchange a direct-via-IXP interconnect uses:
// the one nearest the ISP's home country.
func (w *World) IXPForPeering(isp *asn.AS) *IXP {
	if x, ok := w.ixpByCountry[isp.Country]; ok {
		return x
	}
	return w.ixps[0]
}

// UserCoverageOf reports the fraction of global access-ISP users served
// by the given set of ISPs.
func (w *World) UserCoverageOf(isps map[asn.Number]bool) float64 {
	return w.Registry.UserCoverage(isps)
}

// ---- construction ----

const (
	synthTier2Base  = 190000
	synthAccessBase = 210000
)

func (w *World) buildTier1s(rng *rand.Rand) error {
	alloc := netaddr.NewAllocator(netaddr.MustParsePrefix("5.0.0.0/8"))
	for _, row := range tier1Table {
		p, err := alloc.Allocate(14)
		if err != nil {
			return fmt.Errorf("world: tier1 prefixes: %w", err)
		}
		c, _ := geo.CountryByCode(row.country)
		a := &asn.AS{
			Number: row.asn, Name: row.name, Type: asn.TypeTier1,
			Country: row.country, Continent: c.Continent,
			Prefixes: []netaddr.Prefix{p},
		}
		if err := w.Registry.Register(a); err != nil {
			return err
		}
		w.prefixes[a.Number] = p
		w.tier1s = append(w.tier1s, a)
	}
	// Full-mesh settlement-free peering at the top of the hierarchy.
	for i := range w.tier1s {
		for j := i + 1; j < len(w.tier1s); j++ {
			w.Graph.AddPeering(w.tier1s[i].Number, w.tier1s[j].Number)
		}
	}
	// Global PoP footprints: each carrier covers a deterministic ~60%
	// of countries; every country is guaranteed at least two carriers.
	for _, country := range geo.AllCountries() {
		present := 0
		for _, t := range w.tier1s {
			if t.Country == country.Code || rng.Float64() < 0.6 {
				w.pops[t.Number] = append(w.pops[t.Number], PoP{Loc: country.Centroid, Country: country.Code})
				present++
			}
		}
		for i := 0; present < 2 && i < len(w.tier1s); i++ {
			t := w.tier1s[i]
			if !w.hasPoPIn(t.Number, country.Code) {
				w.pops[t.Number] = append(w.pops[t.Number], PoP{Loc: country.Centroid, Country: country.Code})
				present++
			}
		}
	}
	return nil
}

func (w *World) hasPoPIn(n asn.Number, country string) bool {
	for _, p := range w.pops[n] {
		if p.Country == country {
			return true
		}
	}
	return false
}

func (w *World) buildIXPs() error {
	alloc := netaddr.NewAllocator(netaddr.MustParsePrefix("185.1.0.0/16"))
	for _, row := range ixpTable {
		p, err := alloc.Allocate(24)
		if err != nil {
			return fmt.Errorf("world: ixp prefixes: %w", err)
		}
		c, _ := geo.CountryByCode(row.country)
		a := &asn.AS{
			Number: row.asn, Name: row.name, Type: asn.TypeIXP,
			Country: row.country, Continent: c.Continent,
			Prefixes: []netaddr.Prefix{p},
		}
		if err := w.Registry.Register(a); err != nil {
			return err
		}
		w.prefixes[a.Number] = p
		x := &IXP{ASN: row.asn, Name: row.name, Country: row.country,
			Loc: geo.Point{Lat: row.lat, Lon: row.lon}, Prefix: p}
		w.ixps = append(w.ixps, x)
		w.ixpByASN[x.ASN] = x
		w.pops[a.Number] = []PoP{{Loc: x.Loc, Country: x.Country}}
	}
	return nil
}

func (w *World) buildCountries(rng *rand.Rand) error {
	tier2Alloc := netaddr.NewAllocator(netaddr.MustParsePrefix("31.0.0.0/8"))
	accessAlloc := netaddr.NewAllocator(netaddr.MustParsePrefix("60.0.0.0/6"))
	nextTier2 := asn.Number(synthTier2Base)
	nextAccess := asn.Number(synthAccessBase)

	named := make(map[string][]int) // country → rows in namedISPTable
	for i, row := range namedISPTable {
		named[row.country] = append(named[row.country], i)
	}

	for _, country := range geo.AllCountries() {
		// National transit (Tier-2) providers.
		nTier2 := 1
		if country.UserWeight >= 30 {
			nTier2 = 2
		}
		var tier2s []*asn.AS
		for i := 0; i < nTier2; i++ {
			p, err := tier2Alloc.Allocate(16)
			if err != nil {
				return fmt.Errorf("world: tier2 prefixes: %w", err)
			}
			a := &asn.AS{
				Number: nextTier2, Name: fmt.Sprintf("%s Transit %d", country.Code, i+1),
				Type: asn.TypeTier2, Country: country.Code, Continent: country.Continent,
				Prefixes: []netaddr.Prefix{p},
			}
			nextTier2++
			if err := w.Registry.Register(a); err != nil {
				return err
			}
			w.prefixes[a.Number] = p
			w.pops[a.Number] = []PoP{{Loc: country.Centroid, Country: country.Code}}
			tier2s = append(tier2s, a)
			// Each national transit buys from 2-3 global carriers.
			for _, t1 := range pickDistinct(rng, len(w.tier1s), 2+rng.Intn(2)) {
				w.Graph.AddTransit(w.tier1s[t1].Number, a.Number)
			}
		}
		w.tier2ByCountry[country.Code] = tier2s

		// Access ISPs: named ones first, synthetic fill to the target
		// count.
		target := 2 + int(country.UserWeight/12)
		if target > 8 {
			target = 8
		}
		rows := named[country.Code]
		if len(rows) > target {
			target = len(rows)
		}
		for _, ri := range rows {
			row := namedISPTable[ri]
			if _, err := w.addAccessISP(accessAlloc, row.asn, row.name, country,
				row.relUsers*country.UserWeight, tier2s, row.hasTier1, rng); err != nil {
				return err
			}
		}
		for i := len(rows); i < target; i++ {
			share := 1.0 / float64(i+2) // Zipf-flavoured tail
			if len(rows) > 0 {
				// Synthetic fill behind named ISPs stays smaller than the
				// smallest named one, so "top-N by measurements" returns
				// the ISPs the paper's case studies name.
				share *= 0.2
			}
			if _, err := w.addAccessISP(accessAlloc, nextAccess,
				fmt.Sprintf("%s ISP %d", country.Code, i+1), country,
				share*country.UserWeight, tier2s,
				rng.Float64() < tier1AttachProb, rng); err != nil {
				return err
			}
			nextAccess++
		}
		w.accessByCountry[country.Code] = w.Registry.AccessIn(country.Code)
	}

	// Intra-continent Tier-2 peering keeps regional public paths short.
	byCont := make(map[geo.Continent][]*asn.AS)
	for _, country := range geo.AllCountries() {
		byCont[country.Continent] = append(byCont[country.Continent], w.tier2ByCountry[country.Code]...)
	}
	for _, group := range [][]*asn.AS{byCont[geo.EU], byCont[geo.NA], byCont[geo.SA], byCont[geo.AS], byCont[geo.AF], byCont[geo.OC]} {
		for i := range group {
			for j := i + 1; j < len(group); j++ {
				if rng.Float64() < 0.25 {
					w.Graph.AddPeering(group[i].Number, group[j].Number)
				}
			}
		}
	}
	return nil
}

func (w *World) addAccessISP(alloc *netaddr.Allocator, number asn.Number, name string,
	country geo.Country, users float64, tier2s []*asn.AS, hasTier1 bool, rng *rand.Rand) (*asn.AS, error) {
	p, err := alloc.Allocate(16)
	if err != nil {
		return nil, fmt.Errorf("world: access prefixes: %w", err)
	}
	a := &asn.AS{
		Number: number, Name: name, Type: asn.TypeAccess,
		Country: country.Code, Continent: country.Continent,
		Prefixes: []netaddr.Prefix{p}, Users: users,
	}
	if err := w.Registry.Register(a); err != nil {
		return nil, err
	}
	w.prefixes[a.Number] = p
	w.pops[a.Number] = []PoP{{Loc: country.Centroid, Country: country.Code}}
	// Home transit: always the first national Tier-2, sometimes the
	// second.
	if len(tier2s) > 0 {
		w.Graph.AddTransit(tier2s[0].Number, a.Number)
		if len(tier2s) > 1 && rng.Float64() < 0.5 {
			w.Graph.AddTransit(tier2s[1].Number, a.Number)
		}
	}
	if hasTier1 {
		for _, idx := range w.tier1AffinityFor(country.Code, rng) {
			w.Graph.AddTransit(w.tier1s[idx].Number, a.Number)
		}
	}
	return a, nil
}

// tier1AffinityFor picks which global carriers an eyeball in the given
// country attaches to, honoring the regional affinities the paper's
// case studies report (NTT and TATA for Japan, §6.2).
func (w *World) tier1AffinityFor(country string, rng *rand.Rand) []int {
	want := map[string][]asn.Number{
		"JP": {2914, 6453},
		"KR": {2914, 3491},
		"DE": {1299, 3257},
		"GB": {1273, 3257},
		"UA": {1299, 3356},
		"BH": {6453, 1273},
		"IN": {6453, 3491},
		"US": {3356, 174},
		"CA": {3356, 6461},
		"BR": {3356, 12956},
	}
	if asns, ok := want[country]; ok {
		var idx []int
		for i, t := range w.tier1s {
			for _, n := range asns {
				if t.Number == n {
					idx = append(idx, i)
				}
			}
		}
		return idx
	}
	return pickDistinct(rng, len(w.tier1s), 1+rng.Intn(2))
}

func pickDistinct(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	perm := rng.Perm(n)
	return perm[:k]
}

func (w *World) buildClouds(rng *rand.Rand) error {
	alloc := netaddr.NewAllocator(netaddr.MustParsePrefix("104.0.0.0/8"))
	for _, prov := range w.Inventory.Providers() {
		p, err := alloc.Allocate(12)
		if err != nil {
			return fmt.Errorf("world: cloud prefixes: %w", err)
		}
		a := &asn.AS{
			Number: prov.ASN, Name: prov.Name, Type: asn.TypeCloud,
			Country: "US", Prefixes: []netaddr.Prefix{p},
		}
		if err := w.Registry.Register(a); err != nil {
			return err
		}
		w.prefixes[prov.ASN] = p
		for i, r := range w.Inventory.RegionsOf(prov.Code) {
			w.regionIPs[r.ID] = p.Nth(uint64(i+1)*256 + 10)
		}
		w.buildCloudPoPs(prov)
		w.wireCloudTransit(prov, rng)
	}
	// Interconnection decision for every <access ISP, provider> pair.
	for _, country := range geo.AllCountries() {
		for _, isp := range w.accessByCountry[country.Code] {
			for _, prov := range w.Inventory.Providers() {
				kind := w.decideInterconnect(isp, prov, country, rng)
				w.ic[icKey{isp.Number, prov.Code}] = kind
			}
		}
	}
	return nil
}

// buildCloudPoPs places the provider's WAN edge. Hypergiant private
// WANs have PoPs near users worldwide; semi-private WANs cover only
// continents where they operate datacenters; public-backbone providers
// (and Oracle, whose tenant ingress the paper finds mostly public) are
// only present at their datacenters.
func (w *World) buildCloudPoPs(prov *cloud.Provider) {
	regions := w.Inventory.RegionsOf(prov.Code)
	for _, r := range regions {
		w.pops[prov.ASN] = append(w.pops[prov.ASN], PoP{Loc: r.Loc, Country: r.Country})
	}
	hypergiant := prov.Code == "AMZN" || prov.Code == "GCP" || prov.Code == "MSFT" || prov.Code == "LTSL"
	if hypergiant {
		for _, c := range geo.AllCountries() {
			if c.UserWeight >= 4 && !w.hasPoPIn(prov.ASN, c.Code) {
				w.pops[prov.ASN] = append(w.pops[prov.ASN], PoP{Loc: c.Centroid, Country: c.Code})
			}
		}
		return
	}
	if prov.Backbone == cloud.BackboneSemi {
		present := map[geo.Continent]bool{}
		for _, r := range regions {
			present[r.Continent] = true
		}
		// Alibaba's WAN is only openly reachable inside China.
		if prov.HomeCountry != "" {
			present = map[geo.Continent]bool{}
		}
		for _, c := range geo.AllCountries() {
			if (present[c.Continent] && c.UserWeight >= 15 || c.Code == prov.HomeCountry) && !w.hasPoPIn(prov.ASN, c.Code) {
				w.pops[prov.ASN] = append(w.pops[prov.ASN], PoP{Loc: c.Centroid, Country: c.Code})
			}
		}
	}
}

// wireCloudTransit gives every provider a route from the public
// Internet: hypergiants peer settlement-free with all Tier-1s (they are
// transit-free, §2.3); everyone else buys transit from two or three
// carriers.
func (w *World) wireCloudTransit(prov *cloud.Provider, rng *rand.Rand) {
	hypergiant := prov.Code == "AMZN" || prov.Code == "GCP" || prov.Code == "MSFT" || prov.Code == "LTSL"
	if hypergiant {
		for _, t := range w.tier1s {
			w.Graph.AddPeering(prov.ASN, t.Number)
		}
		return
	}
	for _, idx := range pickDistinct(rng, len(w.tier1s), 2+rng.Intn(2)) {
		w.Graph.AddTransit(w.tier1s[idx].Number, prov.ASN)
	}
}

func (w *World) decideInterconnect(isp *asn.AS, prov *cloud.Provider, country geo.Country, rng *rand.Rand) Interconnect {
	if w.Config.ForcePublicPeering {
		// Keep the rng stream aligned with non-ablated builds.
		rng.Float64()
		return IcPublic
	}
	if m, ok := overrideTable[isp.Number]; ok {
		if kind, ok := m[prov.Code]; ok {
			return kind
		}
	}
	pol := prov.PolicyFor(country.Code, country.Continent)
	r := rng.Float64()
	switch {
	case r < pol.Direct:
		ixpProb := ixpDirectProb
		if prov.Code == "IBM" {
			ixpProb = 0.35
		}
		if rng.Float64() < ixpProb {
			return IcDirectIXP
		}
		return IcDirect
	case r < pol.Direct+pol.PrivateTransit:
		return IcPrivateTransit
	default:
		return IcPublic
	}
}
