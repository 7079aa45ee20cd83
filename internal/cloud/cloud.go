// Package cloud describes the measurement endpoints of the study: the
// ten cloud services of Table 1 (nine providers, with Amazon EC2 and
// Amazon Lightsail listed separately, exactly as the paper does), their
// 195 compute regions with geographic placement, their backbone network
// class, and the per-continent interconnection policies that drive the
// peering analysis of §6.
package cloud

import (
	"fmt"
	"sort"

	"repro/internal/asn"
	"repro/internal/geo"
)

// Backbone classifies a provider's network backbone as Table 1 does:
// a fully private WAN, a WAN private within a continent ("Semi"), or
// reliance on the public Internet.
type Backbone uint8

// Backbone classes from Table 1.
const (
	BackbonePrivate Backbone = iota
	BackboneSemi
	BackbonePublic
)

// String returns the Table 1 label.
func (b Backbone) String() string {
	switch b {
	case BackbonePrivate:
		return "Private"
	case BackboneSemi:
		return "Semi"
	case BackbonePublic:
		return "Public"
	default:
		return "?"
	}
}

// PeeringPolicy parameterizes how a provider interconnects with serving
// ISPs on a continent: the probability that it has a direct peering
// (LOA-CFA style) with a given access ISP, and the probability that,
// absent direct peering, traffic enters via a single private transit
// carrier (PNI at an edge PoP) rather than the public Internet.
type PeeringPolicy struct {
	Direct         float64
	PrivateTransit float64
}

// Provider is one cloud service of Table 1.
type Provider struct {
	Code     string // short code used in the paper's figures (AMZN, GCP, ...)
	Name     string
	ASN      asn.Number
	Backbone Backbone
	// Peering maps continent → interconnection policy for ISPs on that
	// continent. Continents not present fall back to DefaultPeering.
	Peering        map[geo.Continent]PeeringPolicy
	DefaultPeering PeeringPolicy
	// HomeCountry, when set, marks a provider whose WAN is only openly
	// peered within one country (Alibaba in China: outside it the
	// datacenters operate as islands reached over public transit).
	HomeCountry string
}

// PolicyFor returns the interconnection policy towards an ISP in the
// given country/continent.
func (p *Provider) PolicyFor(country string, cont geo.Continent) PeeringPolicy {
	if p.HomeCountry != "" && country == p.HomeCountry {
		// Inside the home country the provider peers broadly.
		return PeeringPolicy{Direct: 0.75, PrivateTransit: 0.15}
	}
	if pol, ok := p.Peering[cont]; ok {
		return pol
	}
	return p.DefaultPeering
}

// Region is one compute cloud region (a datacenter endpoint).
type Region struct {
	Provider  *Provider
	ID        string // stable identifier, e.g. "amzn-eu-dublin"
	City      string
	Country   string // ISO code
	Continent geo.Continent
	Loc       geo.Point
}

// String returns the region ID.
func (r *Region) String() string { return r.ID }

// Inventory is the full endpoint catalogue.
type Inventory struct {
	providers []*Provider
	regions   []*Region
	byCode    map[string]*Provider
}

// NewInventory constructs the Table 1 catalogue. The result is immutable
// and safe for concurrent use.
func NewInventory() *Inventory {
	inv := &Inventory{byCode: make(map[string]*Provider)}
	for i := range providerTable {
		p := providerTable[i] // copy
		inv.providers = append(inv.providers, &p)
		inv.byCode[p.Code] = &p
	}
	for _, row := range regionTable {
		p, ok := inv.byCode[row.provider]
		if !ok {
			panic(fmt.Sprintf("cloud: region %s references unknown provider %s", row.city, row.provider))
		}
		country, ok := geo.CountryByCode(row.country)
		if !ok {
			panic(fmt.Sprintf("cloud: region %s in unknown country %s", row.city, row.country))
		}
		id := fmt.Sprintf("%s-%s-%s", lower(row.provider), country.Continent, row.slug)
		inv.regions = append(inv.regions, &Region{
			Provider:  p,
			ID:        id,
			City:      row.city,
			Country:   row.country,
			Continent: country.Continent,
			Loc:       geo.Point{Lat: row.lat, Lon: row.lon},
		})
	}
	return inv
}

func lower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// Providers returns the ten provider entries in Table 1 order.
func (inv *Inventory) Providers() []*Provider { return inv.providers }

// Provider returns the provider with the given code.
func (inv *Inventory) Provider(code string) (*Provider, bool) {
	p, ok := inv.byCode[code]
	return p, ok
}

// Regions returns all 195 regions.
func (inv *Inventory) Regions() []*Region { return inv.regions }

// RegionsOf returns the regions of one provider.
func (inv *Inventory) RegionsOf(code string) []*Region {
	var out []*Region
	for _, r := range inv.regions {
		if r.Provider.Code == code {
			out = append(out, r)
		}
	}
	return out
}

// RegionsIn returns the regions on one continent.
func (inv *Inventory) RegionsIn(cont geo.Continent) []*Region {
	var out []*Region
	for _, r := range inv.regions {
		if r.Continent == cont {
			out = append(out, r)
		}
	}
	return out
}

// CountByContinent reproduces Table 1: per provider, the number of
// datacenters on each continent, in Table 1 provider order.
func (inv *Inventory) CountByContinent() map[string]map[geo.Continent]int {
	out := make(map[string]map[geo.Continent]int, len(inv.providers))
	for _, p := range inv.providers {
		out[p.Code] = make(map[geo.Continent]int)
	}
	for _, r := range inv.regions {
		out[r.Provider.Code][r.Continent]++
	}
	return out
}

// ProviderCodes returns the codes in Table 1 order.
func (inv *Inventory) ProviderCodes() []string {
	codes := make([]string, len(inv.providers))
	for i, p := range inv.providers {
		codes[i] = p.Code
	}
	return codes
}

// FigureProviderCodes returns the nine provider codes that appear in the
// paper's peering figures (Figures 10-13, 17, 18), alphabetically as
// plotted: Lightsail is folded into Amazon there.
func FigureProviderCodes() []string {
	codes := []string{"BABA", "AMZN", "DO", "GCP", "IBM", "LIN", "MSFT", "ORCL", "VLTR"}
	sort.Strings(codes)
	return codes
}
