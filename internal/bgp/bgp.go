// Package bgp computes AS-level forwarding paths over a graph of
// business relationships, following the Gao–Rexford model: routes
// propagate valley-free (uphill over customer→provider links, at most
// one peer–peer link at the top, then downhill over provider→customer
// links), and route selection prefers customer routes over peer routes
// over provider routes before comparing AS-path length.
//
// The paper's peering analysis (§6) is entirely a function of which
// AS-level path tenant traffic takes — direct into the cloud WAN, via a
// single private transit, or across the public Internet — so this
// package is the routing substrate underneath every traceroute in the
// reproduction.
package bgp

import (
	"sort"
	"sync"

	"repro/internal/asn"
)

// Graph holds the inter-AS business relationships. The zero value is an
// empty graph ready for use. Mutations must complete before concurrent
// path queries begin.
type Graph struct {
	providers map[asn.Number][]asn.Number // AS → its transit providers
	customers map[asn.Number][]asn.Number // AS → its customers
	peers     map[asn.Number][]asn.Number // AS → settlement-free peers

	mu    sync.RWMutex
	cache map[[2]asn.Number]cached
}

type cached struct {
	path []asn.Number
	ok   bool
}

// AddTransit records that customer buys transit from provider.
// Duplicate links are ignored.
func (g *Graph) AddTransit(provider, customer asn.Number) {
	if provider == customer || provider == 0 || customer == 0 {
		return
	}
	if g.providers == nil {
		g.providers = make(map[asn.Number][]asn.Number)
		g.customers = make(map[asn.Number][]asn.Number)
	}
	if containsNum(g.providers[customer], provider) {
		return
	}
	g.providers[customer] = insertSorted(g.providers[customer], provider)
	g.customers[provider] = insertSorted(g.customers[provider], customer)
	g.invalidate()
}

// AddPeering records a settlement-free (or direct/PNI) peering between
// a and b. Duplicate links are ignored.
func (g *Graph) AddPeering(a, b asn.Number) {
	if a == b || a == 0 || b == 0 {
		return
	}
	if g.peers == nil {
		g.peers = make(map[asn.Number][]asn.Number)
	}
	if containsNum(g.peers[a], b) {
		return
	}
	g.peers[a] = insertSorted(g.peers[a], b)
	g.peers[b] = insertSorted(g.peers[b], a)
	g.invalidate()
}

// HasPeering reports whether a and b peer directly.
func (g *Graph) HasPeering(a, b asn.Number) bool {
	return containsNum(g.peers[a], b)
}

// HasTransit reports whether customer buys transit from provider.
func (g *Graph) HasTransit(provider, customer asn.Number) bool {
	return containsNum(g.providers[customer], provider)
}

// Providers returns the transit providers of a, sorted by ASN.
func (g *Graph) Providers(a asn.Number) []asn.Number { return g.providers[a] }

// Customers returns the customers of a, sorted by ASN.
func (g *Graph) Customers(a asn.Number) []asn.Number { return g.customers[a] }

// Peers returns the settlement-free peers of a, sorted by ASN.
func (g *Graph) Peers(a asn.Number) []asn.Number { return g.peers[a] }

// Degree returns the total number of adjacencies of a.
func (g *Graph) Degree(a asn.Number) int {
	return len(g.providers[a]) + len(g.customers[a]) + len(g.peers[a])
}

func (g *Graph) invalidate() {
	g.mu.Lock()
	g.cache = nil
	g.mu.Unlock()
}

func containsNum(s []asn.Number, n asn.Number) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= n })
	return i < len(s) && s[i] == n
}

func insertSorted(s []asn.Number, n asn.Number) []asn.Number {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= n })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = n
	return s
}

// Path returns the selected valley-free AS path from src to dst,
// inclusive of both endpoints, and whether any valley-free route exists.
// Results are cached; the cache is invalidated by graph mutation.
func (g *Graph) Path(src, dst asn.Number) ([]asn.Number, bool) {
	if src == dst {
		return []asn.Number{src}, true
	}
	key := [2]asn.Number{src, dst}
	g.mu.RLock()
	if c, ok := g.cache[key]; ok {
		g.mu.RUnlock()
		return c.path, c.ok
	}
	g.mu.RUnlock()

	path, ok := g.computePath(src, dst)
	g.mu.Lock()
	if g.cache == nil {
		g.cache = make(map[[2]asn.Number]cached)
	}
	g.cache[key] = cached{path, ok}
	g.mu.Unlock()
	return path, ok
}

// computePath implements the selection described in the package comment.
//
// Every valley-free path decomposes as: src climbs zero or more
// customer→provider links to an AS x, optionally crosses one peer link
// x–y, then descends zero or more provider→customer links from y to dst.
// We therefore BFS the uphill tree from src, BFS the downhill tree from
// dst (over the reversed provider→customer relation), and join them
// either directly (x with finite downhill distance) or across one peer
// edge.
func (g *Graph) computePath(src, dst asn.Number) ([]asn.Number, bool) {
	up, upParent := g.bfs(src, func(n asn.Number) []asn.Number { return g.providers[n] })
	down, downParent := g.bfs(dst, func(n asn.Number) []asn.Number { return g.providers[n] })
	// down[x] is the number of downhill hops from x to dst: BFS from dst
	// over "who are dst's providers" reaches exactly the ASes that can
	// descend to dst.

	type candidate struct {
		x, y    asn.Number // join point(s); x == y when no peer edge used
		peer    bool
		upLen   int
		downLen int
	}
	best := candidate{upLen: -1}
	better := func(c candidate) bool {
		if best.upLen < 0 {
			return true
		}
		// Local preference at the source: customer route (pure descent
		// from src) beats peer route beats provider route.
		pref := func(c candidate) int {
			switch {
			case c.upLen == 0 && !c.peer:
				return 0 // customer route
			case c.upLen == 0 && c.peer:
				return 1 // peer route
			default:
				return 2 // provider route
			}
		}
		cl, bl := c.upLen+c.downLen+boolToInt(c.peer), best.upLen+best.downLen+boolToInt(best.peer)
		if pref(c) != pref(best) {
			return pref(c) < pref(best)
		}
		if cl != bl {
			return cl < bl
		}
		// Deterministic tiebreak: prefer no peer edge, then smaller join
		// ASNs.
		if c.peer != best.peer {
			return !c.peer
		}
		if c.x != best.x {
			return c.x < best.x
		}
		return c.y < best.y
	}

	for x, ux := range up {
		if dx, ok := down[x]; ok {
			c := candidate{x: x, y: x, upLen: ux, downLen: dx}
			if better(c) {
				best = c
			}
		}
		for _, y := range g.peers[x] {
			if dy, ok := down[y]; ok {
				c := candidate{x: x, y: y, peer: true, upLen: ux, downLen: dy}
				if better(c) {
					best = c
				}
			}
		}
	}
	if best.upLen < 0 {
		return nil, false
	}

	// Reconstruct: src..x uphill, optional peer hop, y..dst downhill.
	var path []asn.Number
	for n := best.x; ; n = upParent[n] {
		path = append(path, n)
		if n == src {
			break
		}
	}
	reverse(path)
	if best.peer {
		path = append(path, best.y)
	}
	for n := best.y; n != dst; n = downParent[n] {
		if n != best.y {
			path = append(path, n)
		}
	}
	if path[len(path)-1] != dst {
		path = append(path, dst)
	}
	return path, true
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func reverse(s []asn.Number) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// bfs runs a breadth-first search from start over next(n) adjacency and
// returns distance and parent maps. The parent of start is start.
func (g *Graph) bfs(start asn.Number, next func(asn.Number) []asn.Number) (map[asn.Number]int, map[asn.Number]asn.Number) {
	dist := map[asn.Number]int{start: 0}
	parent := map[asn.Number]asn.Number{start: start}
	queue := []asn.Number{start}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range next(n) {
			if _, seen := dist[m]; seen {
				continue
			}
			dist[m] = dist[n] + 1
			parent[m] = n
			queue = append(queue, m)
		}
	}
	return dist, parent
}
