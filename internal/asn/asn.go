// Package asn models autonomous systems: their numbers, organizations,
// network roles, announced prefixes, and per-AS Internet-user population
// estimates (the APNIC dataset equivalent from §3.2 of the paper).
//
// The registry doubles as the IP→ASN resolution database: it indexes all
// announced prefixes in a longest-prefix-match trie, playing the role of
// PyASN plus the Team Cymru fallback in the paper's traceroute pipeline.
package asn

import (
	"fmt"
	"sort"

	"repro/internal/geo"
	"repro/internal/netaddr"
)

// Number is an autonomous system number.
type Number uint32

// String formats the ASN in the conventional "AS1299" form.
func (n Number) String() string { return fmt.Sprintf("AS%d", uint32(n)) }

// Type classifies the network role of an AS, mirroring the network-type
// attribute the paper enriches from PeeringDB.
type Type uint8

// AS roles.
const (
	TypeUnknown Type = iota
	TypeTier1        // global transit carrier (e.g. Telia AS1299)
	TypeTier2        // regional/national transit provider
	TypeAccess       // eyeball / serving ISP hosting vantage points
	TypeCloud        // cloud provider WAN
	TypeIXP          // Internet exchange point peering LAN
	TypeEnterprise
)

// String returns the lowercase role name.
func (t Type) String() string {
	switch t {
	case TypeTier1:
		return "tier1"
	case TypeTier2:
		return "tier2"
	case TypeAccess:
		return "access"
	case TypeCloud:
		return "cloud"
	case TypeIXP:
		return "ixp"
	case TypeEnterprise:
		return "enterprise"
	default:
		return "unknown"
	}
}

// AS describes one autonomous system.
type AS struct {
	Number    Number
	Name      string // organization name, as PeeringDB would report it
	Type      Type
	Country   string // ISO code of headquarters / main operating country
	Continent geo.Continent
	Prefixes  []netaddr.Prefix
	// Users is the estimated Internet-user population served by the AS
	// (APNIC-style ad-based estimate, §3.2). Zero for non-access ASes.
	Users float64
}

// Registry stores all ASes of the synthetic Internet and resolves
// addresses to their origin AS. The zero value is ready to use.
// Registry is safe for concurrent readers after registration completes.
type Registry struct {
	byNumber map[Number]*AS
	ordered  []*AS
	trie     netaddr.Trie[Number]
}

// Register adds an AS to the registry and indexes its prefixes. It
// returns an error on a duplicate ASN or a prefix clash with another AS.
func (r *Registry) Register(a *AS) error {
	if a == nil || a.Number == 0 {
		return fmt.Errorf("asn: refusing to register nil or AS0")
	}
	if r.byNumber == nil {
		r.byNumber = make(map[Number]*AS)
	}
	if _, dup := r.byNumber[a.Number]; dup {
		return fmt.Errorf("asn: duplicate %v", a.Number)
	}
	for _, p := range a.Prefixes {
		if owner, _, ok := r.trie.Lookup(p.Addr); ok && owner != a.Number {
			if existing := r.byNumber[owner]; existing != nil {
				for _, q := range existing.Prefixes {
					if q.Overlaps(p) {
						return fmt.Errorf("asn: %v prefix %v overlaps %v of %v", a.Number, p, q, owner)
					}
				}
			}
		}
	}
	r.byNumber[a.Number] = a
	r.ordered = append(r.ordered, a)
	for _, p := range a.Prefixes {
		r.trie.Insert(p, a.Number)
	}
	return nil
}

// Lookup returns the AS with the given number.
func (r *Registry) Lookup(n Number) (*AS, bool) {
	a, ok := r.byNumber[n]
	return a, ok
}

// ResolveIP maps an address to its origin AS via longest-prefix match.
// Private and CGN addresses never resolve, matching the pipeline's
// treatment of unresolvable hops.
func (r *Registry) ResolveIP(ip netaddr.IP) (*AS, bool) {
	if ip.IsPrivate() {
		return nil, false
	}
	n, _, ok := r.trie.Lookup(ip)
	if !ok {
		return nil, false
	}
	a, ok := r.byNumber[n]
	return a, ok
}

// All returns every registered AS in registration order. Callers must
// not mutate the slice.
func (r *Registry) All() []*AS { return r.ordered }

// Len returns the number of registered ASes.
func (r *Registry) Len() int { return len(r.ordered) }

// AccessIn returns the access ISPs operating in the given country,
// sorted by descending user population (the paper's "top-5 ISPs ordered
// by number of recorded measurements" uses the same ordering).
func (r *Registry) AccessIn(country string) []*AS {
	var out []*AS
	for _, a := range r.ordered {
		if a.Type == TypeAccess && a.Country == country {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Users != out[j].Users {
			return out[i].Users > out[j].Users
		}
		return out[i].Number < out[j].Number
	})
	return out
}

// UserCoverage returns the total user population of the given ASNs as a
// fraction of the population across all access ASes — the statistic the
// paper quotes as "ASes that cover 95.6% of the Internet user
// population".
func (r *Registry) UserCoverage(asns map[Number]bool) float64 {
	var total, covered float64
	for _, a := range r.ordered {
		if a.Type != TypeAccess {
			continue
		}
		total += a.Users
		if asns[a.Number] {
			covered += a.Users
		}
	}
	if total == 0 {
		return 0
	}
	return covered / total
}
