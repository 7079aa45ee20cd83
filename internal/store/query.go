package store

import (
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// gather fans out over the shards in parallel — each shard walks the
// requested dimension inside the query window (zone-map pruning over
// its time partitions) for the platform's groups — then merges every
// group's sorted runs, across all shards and partitions at once, into
// one sorted vector per group name. The merged vectors may alias shard
// memory and must be treated as read-only.
func (s *Store) gather(dim dimension, w Window, platform string) map[string][]float64 {
	defer obs.Time(s.mMerge)()
	perShard := make([]map[string][][]float64, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			defer obs.Time(s.mPick)()
			perShard[i] = sh.runs(dim, w, platform)
		}(i, sh)
	}
	wg.Wait()

	runs := perShard[0]
	for _, more := range perShard[1:] {
		for name, rs := range more {
			runs[name] = append(runs[name], rs...)
		}
	}
	out := make(map[string][]float64, len(runs))
	for name, rs := range runs {
		out[name] = MergeSorted(rs)
	}
	return out
}

// CountrySamples returns the platform's nearest-DC RTT samples merged
// per VP country, each vector sorted ascending.
func (s *Store) CountrySamples(platform string) map[string][]float64 {
	return s.CountrySamplesWindow(platform, Window{})
}

// CountrySamplesWindow is CountrySamples restricted to a cycle window.
func (s *Store) CountrySamplesWindow(platform string, w Window) map[string][]float64 {
	return s.gather(dimCountry, w, platform)
}

// ContinentSamples returns the platform's nearest-DC RTT samples merged
// per VP continent, each vector sorted ascending.
func (s *Store) ContinentSamples(platform string) map[geo.Continent][]float64 {
	return s.ContinentSamplesWindow(platform, Window{})
}

// ContinentSamplesWindow is ContinentSamples restricted to a cycle
// window.
func (s *Store) ContinentSamplesWindow(platform string, w Window) map[geo.Continent][]float64 {
	return ByContinent(s.gather(dimContinent, w, platform))
}

// ByContinent rekeys continent-dimension groups from their
// Continent.String() names to geo.Continent, dropping names that do
// not parse. Shared with the segment reader's exact path.
func ByContinent(byName map[string][]float64) map[geo.Continent][]float64 {
	out := make(map[geo.Continent][]float64, len(byName))
	for name, xs := range byName {
		if cont, err := geo.ParseContinent(name); err == nil {
			out[cont] = xs
		}
	}
	return out
}

// LatencyMap answers the Figure 3 query from the sharded vectors,
// identically to the batch analysis.LatencyMap pass.
func (s *Store) LatencyMap(minSamples int) []analysis.CountryLatency {
	return s.LatencyMapWindow(minSamples, Window{})
}

// LatencyMapWindow is LatencyMap restricted to a cycle window.
func (s *Store) LatencyMapWindow(minSamples int, w Window) []analysis.CountryLatency {
	return analysis.LatencyMapFrom(s.CountrySamplesWindow("speedchecker", w), minSamples)
}

// ContinentCDFs answers the Figure 4 query for one platform.
func (s *Store) ContinentCDFs(platform string) []analysis.ContinentDistribution {
	return s.ContinentCDFsWindow(platform, Window{})
}

// ContinentCDFsWindow is ContinentCDFs restricted to a cycle window.
func (s *Store) ContinentCDFsWindow(platform string, w Window) []analysis.ContinentDistribution {
	return analysis.ContinentDistributionsFrom(s.ContinentSamplesWindow(platform, w))
}

// PlatformDiff answers the Figure 5 query.
func (s *Store) PlatformDiff() []analysis.PlatformDiff {
	return s.PlatformDiffWindow(Window{})
}

// PlatformDiffWindow is PlatformDiff restricted to a cycle window.
func (s *Store) PlatformDiffWindow(w Window) []analysis.PlatformDiff {
	return analysis.PlatformComparisonFrom(
		s.ContinentSamplesWindow("speedchecker", w), s.ContinentSamplesWindow("atlas", w))
}

// PeeringShares answers the Figure 10 query from the merged
// interconnection tallies.
func (s *Store) PeeringShares() []analysis.InterconnectShare {
	return s.PeeringSharesWindow(Window{})
}

// PeeringSharesWindow is PeeringShares restricted to a cycle window.
func (s *Store) PeeringSharesWindow(w Window) []analysis.InterconnectShare {
	return PeeringSharesIn(s.peering, s.partWindows, w)
}

// PeeringSharesIn answers the Figure 10 query from per-partition
// tallies (windows[i] is the cycle window parts[i] covers): tallies
// from partitions overlapping w sum by addition. Peering tallies are
// kept at partition granularity (traces are folded in as their
// partition's window closes), so a window cutting through a partition
// includes that whole partition's tallies. Shared with the segment
// reader, whose meta file carries the same two slices.
func PeeringSharesIn(parts []map[string]map[pipeline.Class]int, windows []Window, w Window) []analysis.InterconnectShare {
	merged := map[string]map[pipeline.Class]int{}
	for i, part := range parts {
		if windows[i].OverlapsWindow(w) {
			FoldPeering(merged, part)
		}
	}
	return analysis.InterconnectionsFromCounts(merged)
}

// FoldPeering adds src's per-provider interconnection tallies into dst.
func FoldPeering(dst, src map[string]map[pipeline.Class]int) {
	for prov, classes := range src {
		cur := dst[prov]
		if cur == nil {
			cur = map[pipeline.Class]int{}
			dst[prov] = cur
		}
		for cl, n := range classes {
			cur[cl] += n
		}
	}
}

// PairSamples returns the platform's nearest-DC samples merged per
// (VP country, provider) pair inside the window, each vector sorted
// ascending — the grouping the changepoint detector scans.
func (s *Store) PairSamples(platform string, w Window) map[string][]float64 {
	return s.gather(dimPair, w, platform)
}

// ChangepointEntry is one country×provider pair scored for a
// median-RTT shift between the windows on either side of a cycle.
type ChangepointEntry struct {
	Country        string  `json:"country"`
	Provider       string  `json:"provider"`
	NBefore        int     `json:"n_before"`
	NAfter         int     `json:"n_after"`
	MedianBeforeMs float64 `json:"median_before_ms,omitempty"`
	MedianAfterMs  float64 `json:"median_after_ms,omitempty"`
	DeltaMs        float64 `json:"delta_ms"`
	// Shift is the Mann-Whitney AUC score P(after > before) + ½P(=):
	// 0.5 means no shift, near 1 a regression, near 0 an improvement.
	Shift float64 `json:"shift"`
	// Status distinguishes pairs present on both sides ("") from pairs
	// that only appear after the cycle ("appeared" — e.g. a region
	// launch) or only before it ("disappeared").
	Status string `json:"status,omitempty"`
}

// Changepoint ranks country×provider pairs by the RTT shift between
// the window before cycle `at` and the window from `at` on. A width of
// w cycles compares [at-w, at) against [at, at+w); width <= 0 compares
// everything before against everything after. Two-sided pairs sort by
// shift score descending (worst regression first, ties by delta);
// one-sided pairs follow, appeared before disappeared.
func (s *Store) Changepoint(platform string, at, width int) []ChangepointEntry {
	before, after := ChangepointWindows(at, width)
	return ChangepointFrom(s.PairSamples(platform, before), s.PairSamples(platform, after))
}

// ChangepointWindows returns the windows Changepoint compares around
// cycle at for the given width.
func ChangepointWindows(at, width int) (before, after Window) {
	before, after = Window{To: at}, Window{From: at}
	if width > 0 {
		if f := at - width; f > 0 {
			before.From = f
		}
		after.To = at + width
	}
	return before, after
}

// ChangepointFrom scores and ranks the changepoint comparison given
// the per-pair sorted sample vectors on either side of the cycle: the
// exact (Mann-Whitney U) instance of ChangepointOf, shared with the
// segment reader's exact path so both backends produce bit-identical
// rankings from the same vectors.
func ChangepointFrom(pre, post map[string][]float64) []ChangepointEntry {
	return ChangepointOf(asSorted(pre), asSorted(post))
}

// asSorted views vectors already sorted ascending as Distributions.
func asSorted(m map[string][]float64) map[string]stats.Sorted {
	out := make(map[string]stats.Sorted, len(m))
	for name, xs := range m {
		out[name] = xs
	}
	return out
}

// ChangepointOf is the changepoint kernel over per-pair distributions
// on either side of the cycle: medians, their delta and the shift
// score, which D itself computes — exactly for stats.Sorted, from
// centroid point masses for digests. Pairs on one side only are
// reported as appeared or disappeared.
func ChangepointOf[D stats.Shifter[D]](pre, post map[string]D) []ChangepointEntry {
	names := make(map[string]struct{}, len(pre)+len(post))
	for n := range pre {
		names[n] = struct{}{}
	}
	for n := range post {
		names[n] = struct{}{}
	}
	out := make([]ChangepointEntry, 0, len(names))
	for n := range names {
		country, provider := splitPair(n)
		e := ChangepointEntry{Country: country, Provider: provider, Shift: 0.5}
		b, okb := pre[n]
		a, oka := post[n]
		if okb {
			e.NBefore = b.N()
		}
		if oka {
			e.NAfter = a.N()
		}
		switch {
		case e.NBefore == 0 && e.NAfter == 0:
			continue
		case e.NBefore == 0:
			e.Status = "appeared"
			e.MedianAfterMs = a.Quantile(0.5)
		case e.NAfter == 0:
			e.Status = "disappeared"
			e.MedianBeforeMs = b.Quantile(0.5)
		default:
			e.MedianBeforeMs = b.Quantile(0.5)
			e.MedianAfterMs = a.Quantile(0.5)
			e.DeltaMs = e.MedianAfterMs - e.MedianBeforeMs
			e.Shift = b.Shift(a)
		}
		out = append(out, e)
	}
	rankChangepoint(out)
	return out
}

// rankChangepoint sorts scored entries into Changepoint's order:
// two-sided pairs by shift descending, ties by delta then name, then
// appeared, then disappeared pairs.
func rankChangepoint(out []ChangepointEntry) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if (a.Status == "") != (b.Status == "") {
			return a.Status == "" // scored pairs first
		}
		if a.Status != b.Status {
			return a.Status < b.Status // "appeared" before "disappeared"
		}
		//lint:ignore floateq ordering comparator: exactly-equal scores fall through to the next tie-break
		if a.Shift != b.Shift {
			return a.Shift > b.Shift
		}
		//lint:ignore floateq ordering comparator: exactly-equal deltas fall through to the next tie-break
		if a.DeltaMs != b.DeltaMs {
			return a.DeltaMs > b.DeltaMs
		}
		if a.Country != b.Country {
			return a.Country < b.Country
		}
		return a.Provider < b.Provider
	})
}
