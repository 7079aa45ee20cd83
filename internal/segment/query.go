package segment

import (
	"repro/internal/analysis"
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
// reader's cached partition tree (sketchtree.go) and handed as it is to
// the same figure kernels the exact path runs (analysis.LatencyMapOf,
// ..., store.ChangepointOf), which read a digest through
// stats.Distribution. Valid only when the
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
			return analysis.LatencyMapOf(sks, minSamples)
		}
	}
	return analysis.LatencyMapFrom(r.gatherExact(store.DimCountry, "speedchecker", w), minSamples)
}

// ContinentCDFs answers the Figure 4 query for one platform.
func (r *Reader) ContinentCDFs(platform string) []analysis.ContinentDistribution {
	return r.ContinentCDFsWindow(platform, store.Window{})
}

// ContinentCDFsWindow is ContinentCDFs restricted to a cycle window.
func (r *Reader) ContinentCDFsWindow(platform string, w store.Window) []analysis.ContinentDistribution {
	if !r.exact {
		if sks, ok := r.sketchView(store.DimContinent, platform, w); ok {
			return analysis.ContinentDistributionsOf(sks)
		}
	}
	return analysis.ContinentDistributionsFrom(store.ByContinent(r.gatherExact(store.DimContinent, platform, w)))
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
			return analysis.PlatformComparisonOf(sc, at)
		}
	}
	return analysis.PlatformComparisonFrom(
		store.ByContinent(r.gatherExact(store.DimContinent, "speedchecker", w)),
		store.ByContinent(r.gatherExact(store.DimContinent, "atlas", w)))
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
			return store.ChangepointOf(pre, post)
		}
	}
	return store.ChangepointFrom(
		r.gatherExact(store.DimPair, platform, before),
		r.gatherExact(store.DimPair, platform, after))
}
