package store

import (
	"sort"

	"repro/internal/geo"
	"repro/internal/stats"
)

// groupKey addresses one pre-sorted RTT vector inside a shard
// partition: samples of one platform grouped by country (byCountry),
// by continent (byContinent, name = Continent.String()), or by
// country×provider pair (byPair, name = country + "|" + provider).
type groupKey struct {
	platform string
	name     string
}

// pairName builds (and splitPair splits) the byPair group name.
func pairName(country, provider string) string { return country + "|" + provider }

func splitPair(name string) (country, provider string) {
	for i := 0; i < len(name); i++ {
		if name[i] == '|' {
			return name[:i], name[i+1:]
		}
	}
	return name, ""
}

// dimension selects one of a partition's group maps.
type dimension uint8

const (
	dimCountry dimension = iota
	dimContinent
	dimPair
)

// shardBuilder is the mutable, single-writer ingest side of a shard:
// plain columnar appends, no sorting until seal.
type shardBuilder struct {
	// Column slices, one entry per ingested sample, in arrival order.
	platform  []string
	country   []string
	continent []geo.Continent
	provider  []string
	rtt       []float64
	cycle     []int32
}

func (sb *shardBuilder) add(s Sample) {
	sb.platform = append(sb.platform, s.Platform)
	sb.country = append(sb.country, s.Country)
	sb.continent = append(sb.continent, s.Continent)
	sb.provider = append(sb.provider, s.Provider)
	sb.rtt = append(sb.rtt, s.RTTms)
	sb.cycle = append(sb.cycle, int32(s.Cycle))
}

// vec is one group's samples: RTTs sorted ascending with the campaign
// cycle of each observation carried alongside, index-aligned. The
// cycles let a query window that cuts through a partition filter rows
// exactly; whole-partition reads never touch them.
type vec struct {
	rtt   []float64
	cycle []int32
}

// shardPart is one sealed time partition of a shard: the rows whose
// cycle falls inside window, with per-group RTT vectors sorted
// ascending and a [minCycle, maxCycle] zone map for pruning.
type shardPart struct {
	window   Window
	rows     int
	minCycle int
	maxCycle int

	byCountry   map[groupKey]vec
	byContinent map[groupKey]vec
	byPair      map[groupKey]vec
}

func newShardPart(w Window) *shardPart {
	return &shardPart{
		window:      w,
		byCountry:   map[groupKey]vec{},
		byContinent: map[groupKey]vec{},
		byPair:      map[groupKey]vec{},
	}
}

func (p *shardPart) groups(dim dimension) map[groupKey]vec {
	switch dim {
	case dimCountry:
		return p.byCountry
	case dimContinent:
		return p.byContinent
	default:
		return p.byPair
	}
}

func (p *shardPart) addTo(dim dimension, k groupKey, rtt float64, cycle int32) {
	m := p.groups(dim)
	v := m[k]
	v.rtt = append(v.rtt, rtt)
	v.cycle = append(v.cycle, cycle)
	m[k] = v
}

// covered reports whether every row of the partition falls inside the
// query window — the fast path that aliases the partition's vectors
// instead of filtering them.
func (p *shardPart) covered(w Window) bool {
	return w.Contains(p.minCycle) && w.Contains(p.maxCycle)
}

// filter returns the subsequence of v whose cycles fall inside the
// window. v is sorted by RTT and filtering preserves order.
func (v vec) filter(w Window) []float64 {
	var out []float64
	for i, c := range v.cycle {
		if w.Contains(int(c)) {
			out = append(out, v.rtt[i])
		}
	}
	return out
}

// shard is the sealed, read-only form: time partitions of per-group
// sorted RTT vectors, plus shard-global summaries. The global Welford
// accumulates in arrival order regardless of the partition count, so
// summary statistics are bit-identical across partition layouts of the
// same stream.
type shard struct {
	rows         int
	parts        []*shardPart
	providers    map[string]struct{}
	platformRows map[string]int
	rtt          stats.Welford
}

func (sb *shardBuilder) seal(opts Options) *shard {
	sh := &shard{
		rows:         len(sb.rtt),
		parts:        make([]*shardPart, opts.Partitions),
		providers:    map[string]struct{}{},
		platformRows: map[string]int{},
	}
	for i := range sh.parts {
		sh.parts[i] = newShardPart(opts.partitionWindow(i))
	}
	for i, rtt := range sb.rtt {
		plat := sb.platform[i]
		cyc := sb.cycle[i]
		p := sh.parts[opts.partitionIndex(int(cyc))]
		if p.rows == 0 || int(cyc) < p.minCycle {
			p.minCycle = int(cyc)
		}
		if int(cyc) > p.maxCycle {
			p.maxCycle = int(cyc)
		}
		p.rows++
		p.addTo(dimCountry, groupKey{plat, sb.country[i]}, rtt, cyc)
		p.addTo(dimContinent, groupKey{plat, sb.continent[i].String()}, rtt, cyc)
		p.addTo(dimPair, groupKey{plat, pairName(sb.country[i], sb.provider[i])}, rtt, cyc)
		sh.providers[sb.provider[i]] = struct{}{}
		sh.platformRows[plat]++
		sh.rtt.Add(rtt)
	}
	for _, p := range sh.parts {
		p.sortVecs()
	}
	return sh
}

func (p *shardPart) sortVecs() {
	for _, m := range []map[groupKey]vec{p.byCountry, p.byContinent, p.byPair} {
		for _, v := range m {
			sortVec(v)
		}
	}
}

// sortVec orders a group's rows by RTT, keeping the cycle column
// aligned. The stable sort makes the cycle permutation deterministic
// under ties; the RTT value sequence itself equals a plain
// sort.Float64s of the same multiset, so partition layout never changes
// the bits a query returns.
func sortVec(v vec) {
	sort.Stable(byRTT(v))
}

type byRTT vec

func (v byRTT) Len() int           { return len(v.rtt) }
func (v byRTT) Less(i, j int) bool { return v.rtt[i] < v.rtt[j] }
func (v byRTT) Swap(i, j int) {
	v.rtt[i], v.rtt[j] = v.rtt[j], v.rtt[i]
	v.cycle[i], v.cycle[j] = v.cycle[j], v.cycle[i]
}

// runs walks one dimension of the shard inside the query window and
// returns, per group name of the platform, the sorted vectors that
// survive: partitions whose zone map misses the window are pruned,
// fully-covered partitions alias their frozen vectors, and straddled
// partitions filter row by row. The runs are not merged here — gather
// merges each group once across every shard and partition — and alias
// shard memory, so callers must treat them as read-only.
func (sh *shard) runs(dim dimension, w Window, platform string) map[string][][]float64 {
	out := map[string][][]float64{}
	for _, p := range sh.parts {
		if p.rows == 0 || !w.Overlaps(p.minCycle, p.maxCycle) {
			continue
		}
		covered := p.covered(w)
		for k, v := range p.groups(dim) {
			if k.platform != platform {
				continue
			}
			xs := v.rtt
			if !covered {
				xs = v.filter(w)
			}
			if len(xs) > 0 {
				out[k.name] = append(out[k.name], xs)
			}
		}
	}
	return out
}

// MergeSorted k-way merges ascending vectors into one ascending vector;
// the result depends only on the combined multiset. For a single input
// it returns it as-is (shard vectors are immutable, so sharing is
// safe); callers must treat the result as read-only. Only the result is
// allocated, beyond the merge's own slice of run headers. The segment
// reader's exact path merges its decoded columns with it too.
func MergeSorted(vecs [][]float64) []float64 {
	runs := make([][]float64, 0, len(vecs))
	total := 0
	for _, v := range vecs {
		if len(v) > 0 {
			runs = append(runs, v)
			total += len(v)
		}
	}
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	case 2:
		return merge2(runs[0], runs[1], total)
	}
	// runs is a binary min-heap keyed on each run's head; the smallest
	// head is emitted and its run sliced from the front, and a drained
	// run is replaced by the last one.
	for i := len(runs)/2 - 1; i >= 0; i-- {
		siftDown(runs, i)
	}
	out := make([]float64, 0, total)
	for len(runs) > 0 {
		r := runs[0]
		out = append(out, r[0])
		if len(r) > 1 {
			runs[0] = r[1:]
		} else {
			last := len(runs) - 1
			runs[0] = runs[last]
			runs = runs[:last]
		}
		siftDown(runs, 0)
	}
	return out
}

// siftDown restores the min-heap order of h below index i.
func siftDown(h [][]float64, i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r][0] < h[m][0] {
			m = r
		}
		if h[i][0] <= h[m][0] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func merge2(a, b []float64, total int) []float64 {
	out := make([]float64, 0, total)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
