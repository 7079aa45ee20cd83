package bgp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/asn"
)

// buildHierarchy wires a small Internet:
//
//	    T1 ──── T2        (tier-1 peers)
//	   /  \    /  \
//	  R1   R2 R3   R4     (regional transit, customers of tier-1s)
//	 /  \    |  \    \
//	A1  A2   A3  A4   A5  (access ISPs)
//
// plus a direct peering A1–A3.
func buildHierarchy() *Graph {
	g := &Graph{}
	g.AddPeering(1, 2) // T1-T2
	g.AddTransit(1, 11)
	g.AddTransit(1, 12)
	g.AddTransit(2, 13)
	g.AddTransit(2, 14)
	g.AddTransit(11, 101)
	g.AddTransit(11, 102)
	g.AddTransit(12, 103)
	g.AddTransit(13, 103) // A3 multihomed to R2 and R3
	g.AddTransit(13, 104)
	g.AddTransit(14, 105)
	g.AddPeering(101, 103)
	return g
}

func TestPathSelf(t *testing.T) {
	g := buildHierarchy()
	p, ok := g.Path(101, 101)
	if !ok || len(p) != 1 || p[0] != 101 {
		t.Errorf("self path = %v, %v", p, ok)
	}
}

func TestPathDirectPeering(t *testing.T) {
	g := buildHierarchy()
	p, ok := g.Path(101, 103)
	if !ok {
		t.Fatal("no path")
	}
	if len(p) != 2 || p[0] != 101 || p[1] != 103 {
		t.Errorf("want direct peering path [101 103], got %v", p)
	}
	if err := validateValleyFree(g, p); err != nil {
		t.Error(err)
	}
}

func TestPathViaCommonProvider(t *testing.T) {
	g := buildHierarchy()
	p, ok := g.Path(101, 102)
	if !ok {
		t.Fatal("no path")
	}
	want := []asn.Number{101, 11, 102}
	if !equalPath(p, want) {
		t.Errorf("path = %v, want %v", p, want)
	}
}

func TestPathAcrossTier1Peering(t *testing.T) {
	g := buildHierarchy()
	p, ok := g.Path(102, 105)
	if !ok {
		t.Fatal("no path")
	}
	want := []asn.Number{102, 11, 1, 2, 14, 105}
	if !equalPath(p, want) {
		t.Errorf("path = %v, want %v", p, want)
	}
	if err := validateValleyFree(g, p); err != nil {
		t.Error(err)
	}
}

func TestProviderToCustomerDescent(t *testing.T) {
	g := buildHierarchy()
	// Tier-1 reaching an access ISP is a pure customer route.
	p, ok := g.Path(1, 102)
	if !ok {
		t.Fatal("no path")
	}
	want := []asn.Number{1, 11, 102}
	if !equalPath(p, want) {
		t.Errorf("path = %v, want %v", p, want)
	}
}

func TestCustomerRoutePreferredOverPeer(t *testing.T) {
	// dst reachable both through a peer and through our own customer
	// cone; the customer route must win even when it is longer.
	g := &Graph{}
	g.AddTransit(10, 20) // 10 is provider of 20
	g.AddTransit(20, 30)
	g.AddPeering(10, 30) // also a direct peer shortcut
	p, ok := g.Path(10, 30)
	if !ok {
		t.Fatal("no path")
	}
	// Customer route 10→20→30 has pref 0; peer route 10→30 has pref 1.
	want := []asn.Number{10, 20, 30}
	if !equalPath(p, want) {
		t.Errorf("path = %v, want customer route %v", p, want)
	}
}

func TestNoValleyPath(t *testing.T) {
	// Two access ISPs whose providers neither peer nor share transit:
	// no valley-free route exists.
	g := &Graph{}
	g.AddTransit(11, 101)
	g.AddTransit(12, 102)
	if p, ok := g.Path(101, 102); ok {
		t.Errorf("unexpected path %v", p)
	}
}

func TestValleyRejected(t *testing.T) {
	g := buildHierarchy()
	// 102→11→101→103 would be a valley: 11 descends to its customer 101
	// and then 101 exports a peer route upward. validateValleyFree must
	// reject the hand-built valley.
	valley := []asn.Number{12, 1, 11, 101, 103, 13}
	if err := validateValleyFree(g, valley); err == nil {
		t.Error("valley path accepted")
	}
	if err := validateValleyFree(g, nil); err == nil {
		t.Error("empty path accepted")
	}
	if err := validateValleyFree(g, []asn.Number{101, 105}); err == nil {
		t.Error("disconnected hop accepted")
	}
}

func TestAllComputedPathsAreValleyFree(t *testing.T) {
	g := buildHierarchy()
	nodes := []asn.Number{1, 2, 11, 12, 13, 14, 101, 102, 103, 104, 105}
	for _, s := range nodes {
		for _, d := range nodes {
			p, ok := g.Path(s, d)
			if !ok {
				continue
			}
			if p[0] != s || p[len(p)-1] != d {
				t.Errorf("path %v does not span %v→%v", p, s, d)
			}
			if err := validateValleyFree(g, p); err != nil {
				t.Errorf("path %v→%v: %v (path %v)", s, d, err, p)
			}
		}
	}
}

// TestRandomGraphsValleyFree is the DESIGN.md property test: on random
// hierarchies every computed path validates, is simple, and is symmetric
// in existence when all links are bidirectionally usable.
func TestRandomGraphsValleyFree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		g := &Graph{}
		const tiers = 3
		var level [tiers][]asn.Number
		next := asn.Number(1)
		for l := 0; l < tiers; l++ {
			n := 2 + rng.Intn(4)
			for i := 0; i < n; i++ {
				level[l] = append(level[l], next)
				next++
			}
		}
		// Tier-0 full mesh peering.
		for i := 0; i < len(level[0]); i++ {
			for j := i + 1; j < len(level[0]); j++ {
				g.AddPeering(level[0][i], level[0][j])
			}
		}
		// Each lower-tier AS buys transit from 1-2 upper-tier ASes.
		for l := 1; l < tiers; l++ {
			for _, a := range level[l] {
				for k := 0; k < 1+rng.Intn(2); k++ {
					g.AddTransit(level[l-1][rng.Intn(len(level[l-1]))], a)
				}
			}
		}
		// Some lateral peerings at the bottom.
		for k := 0; k < 3; k++ {
			a := level[tiers-1][rng.Intn(len(level[tiers-1]))]
			b := level[tiers-1][rng.Intn(len(level[tiers-1]))]
			g.AddPeering(a, b)
		}
		var all []asn.Number
		for _, l := range level {
			all = append(all, l...)
		}
		for _, s := range all {
			for _, d := range all {
				p, ok := g.Path(s, d)
				if !ok {
					t.Errorf("trial %d: no path %v→%v in connected hierarchy", trial, s, d)
					continue
				}
				if err := validateValleyFree(g, p); err != nil {
					t.Errorf("trial %d: %v (path %v)", trial, err, p)
				}
				seen := map[asn.Number]bool{}
				for _, n := range p {
					if seen[n] {
						t.Errorf("trial %d: loop in path %v", trial, p)
						break
					}
					seen[n] = true
				}
				if rp, rok := g.Path(d, s); !rok {
					t.Errorf("trial %d: %v→%v exists but reverse does not", trial, s, d)
				} else if len(rp) == 0 {
					t.Errorf("trial %d: empty reverse path", trial)
				}
			}
		}
	}
}

func TestCacheInvalidation(t *testing.T) {
	g := &Graph{}
	g.AddTransit(1, 2)
	g.AddTransit(1, 3)
	p1, ok := g.Path(2, 3)
	if !ok || len(p1) != 3 {
		t.Fatalf("initial path %v %v", p1, ok)
	}
	// Add a direct peering; the cached transit path must be dropped.
	g.AddPeering(2, 3)
	p2, ok := g.Path(2, 3)
	if !ok || len(p2) != 2 {
		t.Errorf("after peering, path = %v", p2)
	}
}

func TestAdjacencyAccessors(t *testing.T) {
	g := buildHierarchy()
	if !g.HasPeering(1, 2) || !g.HasPeering(2, 1) {
		t.Error("tier-1 peering not symmetric")
	}
	if !g.HasTransit(11, 101) {
		t.Error("transit link missing")
	}
	if g.HasTransit(101, 11) {
		t.Error("transit direction reversed")
	}
	if got := degree(g, 11); got != 3 { // provider 1, customers 101, 102
		t.Errorf("Degree(11) = %d", got)
	}
	if got := len(g.customers[13]); got != 2 {
		t.Errorf("Customers(13) = %d", got)
	}
	if got := len(g.Providers(103)); got != 2 {
		t.Errorf("Providers(103) = %d", got)
	}
	if got := len(g.Peers(101)); got != 1 {
		t.Errorf("Peers(101) = %d", got)
	}
}

func TestSelfAndZeroLinksIgnored(t *testing.T) {
	g := &Graph{}
	g.AddTransit(5, 5)
	g.AddPeering(7, 7)
	g.AddTransit(0, 5)
	g.AddPeering(0, 5)
	if degree(g, 5) != 0 || degree(g, 7) != 0 {
		t.Error("self/zero links should be ignored")
	}
	// Duplicates collapse.
	g.AddPeering(1, 2)
	g.AddPeering(2, 1)
	g.AddTransit(3, 4)
	g.AddTransit(3, 4)
	if len(g.Peers(1)) != 1 || len(g.customers[3]) != 1 {
		t.Error("duplicate links should collapse")
	}
}

// degree is a's total number of adjacencies.
func degree(g *Graph, a asn.Number) int {
	return len(g.providers[a]) + len(g.customers[a]) + len(g.peers[a])
}

func equalPath(a, b []asn.Number) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// validateValleyFree is the routing tests' oracle: it checks that a
// path obeys the valley-free property under g's relationships: uphill
// links, at most one peer link, then downhill links, with every
// adjacent pair actually connected. It returns a descriptive error for
// the first violation.
func validateValleyFree(g *Graph, path []asn.Number) error {
	if len(path) == 0 {
		return fmt.Errorf("bgp: empty path")
	}
	const (
		phaseUp = iota
		phasePeered
		phaseDown
	)
	phase := phaseUp
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		switch {
		case g.HasTransit(b, a): // a climbs to its provider b
			if phase != phaseUp {
				return fmt.Errorf("bgp: uphill link %v→%v after summit", a, b)
			}
		case g.HasPeering(a, b):
			if phase != phaseUp {
				return fmt.Errorf("bgp: second lateral link %v→%v", a, b)
			}
			phase = phasePeered
		case g.HasTransit(a, b): // a descends to its customer b
			phase = phaseDown
		default:
			return fmt.Errorf("bgp: no relationship between %v and %v", a, b)
		}
	}
	return nil
}
