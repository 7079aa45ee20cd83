package segment

import (
	"math"
	"sort"

	"repro/internal/analysis"
	"repro/internal/geo"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/store"
)

// The Reader serves the same figure-query surface as *store.Store
// (the serve.Querier contract). Two paths exist:
//
// Exact: decode the column blocks the window and zone maps fail to
// prune, filter straddled blocks row by row, and merge each group's
// sorted vectors — the reconstructed per-group vectors carry exactly
// the sealed store's multisets, so every figure function receives
// bit-identical input and returns bit-identical output.
//
// Sketch (default, unless Options.Exact): answer quantile-shaped
// figures from each group's t-digest over the window, merged from the
// reader's cached partition tree (sketchtree.go). Valid only when the
// query window is partition-aligned — every non-empty partition
// overlapping the window must be fully inside it — otherwise rows
// would need cycle-level filtering that a sketch cannot do, and the
// query falls back to the exact path.

// Summary returns the reconstructed store summary; bit-identical to
// the sealed store's.
func (r *Reader) Summary() store.Summary { return r.summary }

// gatherExact reconstructs the per-name merged sorted vectors for one
// dimension×platform inside the window — the segment counterpart of
// the store's shard fan-out.
func (r *Reader) gatherExact(dim store.Dim, platform string, w store.Window) map[string][]float64 {
	parts := map[string][][]float64{}
	for _, ss := range r.shards {
		for _, k := range ss.keys {
			if k.dim != dim || k.platform != platform {
				continue
			}
			for _, vec := range r.groupVectors(ss, ss.groups[k], w) {
				parts[k.name] = append(parts[k.name], vec)
			}
		}
	}
	out := make(map[string][]float64, len(parts))
	for name, vecs := range parts {
		if merged := store.MergeSorted(vecs); len(merged) > 0 {
			out[name] = merged
		}
	}
	return out
}

// groupVectors decodes one group's window-surviving column blocks into
// per-partition sorted vectors.
func (r *Reader) groupVectors(ss *shardSeg, g *groupBlocks, w store.Window) [][]float64 {
	var out [][]float64
	var cur []float64
	curPart := -1
	flush := func() {
		if len(cur) > 0 {
			out = append(out, cur)
			cur = nil
		}
	}
	for _, e := range g.cols {
		pz := ss.parts[e.part]
		if pz.rows == 0 || !w.Overlaps(pz.minCycle, pz.maxCycle) {
			r.mPruned.Inc()
			continue
		}
		covered := w.Contains(pz.minCycle) && w.Contains(pz.maxCycle)
		if !covered && !w.Overlaps(e.minCycle, e.maxCycle) {
			r.mPruned.Inc()
			continue
		}
		if e.part != curPart {
			flush()
			curPart = e.part
		}
		if covered || (w.Contains(e.minCycle) && w.Contains(e.maxCycle)) {
			rtt, _, err := r.readColumnCounted(ss, e)
			if err != nil {
				continue
			}
			cur = append(cur, rtt...)
			continue
		}
		rtt, cycle, err := r.readColumnCounted(ss, e)
		if err != nil {
			continue
		}
		for i, c := range cycle {
			if w.Contains(int(c)) {
				cur = append(cur, rtt[i])
			}
		}
	}
	flush()
	return out
}

// readColumnCounted is readColumn plus instrumentation: reads and
// decode failures count on the shared registry. A failed block is
// skipped by queries — corruption surfaces through
// segment_block_errors_total rather than a partial panic.
func (r *Reader) readColumnCounted(ss *shardSeg, e entry) ([]float64, []int32, error) {
	rtt, cycle, err := ss.readColumn(e)
	if err != nil {
		r.mBlockErrs.Inc()
		return nil, nil, err
	}
	r.mRead.Inc()
	return rtt, cycle, nil
}

// sketchView returns each group's digest over w, for callers to read
// and never write: a window one tree node covers is answered by the
// cached node itself. ok is false when the window is not
// partition-aligned (alignedRun) — the caller must fall back to the
// exact path.
func (r *Reader) sketchView(dim store.Dim, platform string, w store.Window) (sketchSet, bool) {
	from, to, ok := r.alignedRun(w)
	if !ok {
		return nil, false
	}
	t := r.trees[treeKey{dim, platform}]
	if t == nil || from == to {
		return nil, true
	}
	views := r.cover(t, 0, 0, r.meta.partitions, from, to, nil)
	if len(views) == 1 {
		return views[0], true
	}
	return r.mergeViews(views...), true
}

// GroupQuantiles answers a single group's quantiles from its merged
// sketch — the point query the segment bench exercises. It returns
// ok=false when the window is not partition-aligned or the group has
// no samples in it; callers then use the exact path.
func (r *Reader) GroupQuantiles(dim store.Dim, platform, name string, w store.Window, qs ...float64) ([]float64, uint64, bool) {
	sks, _ := r.sketchView(dim, platform, w)
	sk := sks[name]
	if sk == nil || sk.Count() == 0 {
		return nil, 0, false
	}
	return sk.Quantiles(make([]float64, 0, len(qs)), qs), sk.Count(), true
}

// LatencyMap answers the Figure 3 query.
func (r *Reader) LatencyMap(minSamples int) []analysis.CountryLatency {
	return r.LatencyMapWindow(minSamples, store.Window{})
}

// LatencyMapWindow is LatencyMap restricted to a cycle window.
func (r *Reader) LatencyMapWindow(minSamples int, w store.Window) []analysis.CountryLatency {
	if !r.exact {
		if sks, ok := r.sketchView(store.DimCountry, "speedchecker", w); ok {
			return latencyMapFromSketches(sks, minSamples)
		}
	}
	return analysis.LatencyMapFrom(r.gatherExact(store.DimCountry, "speedchecker", w), minSamples)
}

// latencyMapFromSketches approximates the Figure 3 entries from merged
// country sketches: the median from the digest, the 95% CI from the
// notched-boxplot approximation ±1.57·IQR/√n (McGill et al.), in place
// of the exact path's percentile bootstrap.
func latencyMapFromSketches(sks sketchSet, minSamples int) []analysis.CountryLatency {
	names := make([]string, 0, len(sks))
	for cc := range sks {
		names = append(names, cc)
	}
	sort.Strings(names)
	var out []analysis.CountryLatency
	for _, cc := range names {
		sk := sks[cc]
		n := int(sk.Count())
		if n == 0 || n < minSamples {
			continue
		}
		c, ok := geo.CountryByCode(cc)
		if !ok {
			continue
		}
		med := sk.Quantile(0.5)
		iqr := sk.Quantile(0.75) - sk.Quantile(0.25)
		half := 1.57 * iqr / math.Sqrt(float64(n))
		out = append(out, analysis.CountryLatency{
			Country: cc, Continent: c.Continent,
			MedianMs: med, CILowMs: med - half, CIHighMs: med + half,
			Band: analysis.BandOf(med), Samples: n,
		})
	}
	return out
}

// ContinentCDFs answers the Figure 4 query for one platform.
func (r *Reader) ContinentCDFs(platform string) []analysis.ContinentDistribution {
	return r.ContinentCDFsWindow(platform, store.Window{})
}

// sketchCDFPoints is the quantile-grid resolution used to materialize
// a CDF curve from a merged sketch.
const sketchCDFPoints = 1024

// The kernels below read a digest on fixed ascending grids, each in one
// batch — one sweep of the centroids per grid, not one per point.
var (
	cdfGrid     = midpointGrid(sketchCDFPoints)
	shiftGrid   = midpointGrid(sketchShiftPoints)
	centileGrid = func() []float64 { // the 1st..99th percentiles
		qs := make([]float64, 99)
		for i := range qs {
			qs[i] = float64(i+1) / 100
		}
		return qs
	}()
)

// midpointGrid is the n-point quantile grid (i+½)/n.
func midpointGrid(n int) []float64 {
	qs := make([]float64, n)
	for i := range qs {
		qs[i] = (float64(i) + 0.5) / float64(n)
	}
	return qs
}

// ContinentCDFsWindow is ContinentCDFs restricted to a cycle window.
func (r *Reader) ContinentCDFsWindow(platform string, w store.Window) []analysis.ContinentDistribution {
	if !r.exact {
		if sks, ok := r.sketchView(store.DimContinent, platform, w); ok {
			return continentCDFsFromSketches(sks)
		}
	}
	return analysis.ContinentDistributionsFrom(store.ByContinent(r.gatherExact(store.DimContinent, platform, w)))
}

// continentCDFsFromSketches materializes each continent's CDF from a
// dense quantile grid over the merged digest; threshold fractions come
// straight from the digest's CDF.
func continentCDFsFromSketches(sks sketchSet) []analysis.ContinentDistribution {
	var out []analysis.ContinentDistribution
	for _, cont := range geo.Continents() {
		sk := sks[cont.String()]
		if sk == nil || sk.Count() == 0 {
			continue
		}
		cdf, err := stats.CDFFromSorted(sk.Quantiles(make([]float64, 0, sketchCDFPoints), cdfGrid))
		if err != nil {
			continue
		}
		out = append(out, analysis.ContinentDistribution{
			Continent: cont, CDF: cdf,
			UnderMTP: sk.CDF(analysis.MTPms),
			UnderHPL: sk.CDF(analysis.HPLms),
			UnderHRT: sk.CDF(analysis.HRTms),
			N:        int(sk.Count()),
		})
	}
	return out
}

// PlatformDiff answers the Figure 5 query.
func (r *Reader) PlatformDiff() []analysis.PlatformDiff {
	return r.PlatformDiffWindow(store.Window{})
}

// PlatformDiffWindow is PlatformDiff restricted to a cycle window.
func (r *Reader) PlatformDiffWindow(w store.Window) []analysis.PlatformDiff {
	if !r.exact {
		sc, ok1 := r.sketchView(store.DimContinent, "speedchecker", w)
		at, ok2 := r.sketchView(store.DimContinent, "atlas", w)
		if ok1 && ok2 {
			return platformDiffFromSketches(sc, at)
		}
	}
	return analysis.PlatformComparisonFrom(
		store.ByContinent(r.gatherExact(store.DimContinent, "speedchecker", w)),
		store.ByContinent(r.gatherExact(store.DimContinent, "atlas", w)))
}

// platformDiffFromSketches matches the two platforms' distributions
// percentile by percentile on the 1st..99th grid, like the exact path,
// with quantiles from the merged digests.
func platformDiffFromSketches(sc, at sketchSet) []analysis.PlatformDiff {
	var out []analysis.PlatformDiff
	for _, cont := range geo.Continents() {
		a, b := sc[cont.String()], at[cont.String()]
		if a == nil || b == nil || a.Count() == 0 || b.Count() == 0 {
			continue
		}
		d := analysis.PlatformDiff{Continent: cont, NSC: int(a.Count()), NAtlas: int(b.Count())}
		d.Diffs = a.Quantiles(make([]float64, 0, len(centileGrid)), centileGrid)
		atlasFaster := 0
		for i, qb := range b.Quantiles(make([]float64, 0, len(centileGrid)), centileGrid) {
			d.Diffs[i] -= qb
			if d.Diffs[i] > 0 {
				atlasFaster++
			}
		}
		d.AtlasFasterShare = float64(atlasFaster) / 99
		out = append(out, d)
	}
	return out
}

// PeeringShares answers the Figure 10 query; tallies live in the meta
// file, so both modes answer exactly.
func (r *Reader) PeeringShares() []analysis.InterconnectShare {
	return r.PeeringSharesWindow(store.Window{})
}

// PeeringSharesWindow is PeeringShares restricted to a cycle window,
// with the store's partition-granularity semantics.
func (r *Reader) PeeringSharesWindow(w store.Window) []analysis.InterconnectShare {
	return store.PeeringSharesIn(r.meta.peering, r.meta.windows, w)
}

// Changepoint ranks country×provider pairs by the RTT shift around
// cycle `at`, with Store.Changepoint's window semantics.
func (r *Reader) Changepoint(platform string, at, width int) []store.ChangepointEntry {
	before, after := store.ChangepointWindows(at, width)
	if !r.exact {
		pre, ok1 := r.sketchView(store.DimPair, platform, before)
		post, ok2 := r.sketchView(store.DimPair, platform, after)
		if ok1 && ok2 {
			return changepointFromSketches(pre, post)
		}
	}
	return store.ChangepointFrom(
		r.gatherExact(store.DimPair, platform, before),
		r.gatherExact(store.DimPair, platform, after))
}

// sketchShiftPoints is the quantile-grid resolution for the
// Mann-Whitney AUC approximation.
const sketchShiftPoints = 201

// sketchShift approximates MannWhitneyShift — P(after > before) +
// ½P(=) — as the mean of F_before over a quantile grid of the after
// digest (the continuous-distribution identity E_y[F_before(y)]).
// buf is scratch for the grid's 2·sketchShiftPoints values.
func sketchShift(pre, post *sketch.Sketch, buf []float64) float64 {
	ys := post.Quantiles(buf[:0], shiftGrid)
	var sum float64
	for _, f := range pre.CDFs(ys[len(ys):], ys) {
		sum += f
	}
	return sum / sketchShiftPoints
}

// changepointFromSketches scores the pairs from merged digests,
// mirroring store.ChangepointFrom's entry construction.
func changepointFromSketches(pre, post sketchSet) []store.ChangepointEntry {
	names := make(map[string]struct{}, len(pre)+len(post))
	for n := range pre {
		names[n] = struct{}{}
	}
	for n := range post {
		names[n] = struct{}{}
	}
	out := make([]store.ChangepointEntry, 0, len(names))
	buf := make([]float64, 0, 2*sketchShiftPoints)
	for n := range names {
		country, provider := store.SplitPair(n)
		var nb, na int
		if sk := pre[n]; sk != nil {
			nb = int(sk.Count())
		}
		if sk := post[n]; sk != nil {
			na = int(sk.Count())
		}
		e := store.ChangepointEntry{Country: country, Provider: provider,
			NBefore: nb, NAfter: na, Shift: 0.5}
		switch {
		case nb == 0 && na == 0:
			continue
		case nb == 0:
			e.Status = "appeared"
			e.MedianAfterMs = post[n].Quantile(0.5)
		case na == 0:
			e.Status = "disappeared"
			e.MedianBeforeMs = pre[n].Quantile(0.5)
		default:
			e.MedianBeforeMs = pre[n].Quantile(0.5)
			e.MedianAfterMs = post[n].Quantile(0.5)
			e.DeltaMs = e.MedianAfterMs - e.MedianBeforeMs
			e.Shift = sketchShift(pre[n], post[n], buf)
		}
		out = append(out, e)
	}
	store.RankChangepoint(out)
	return out
}
