package analysis

import (
	"sort"

	"repro/internal/geo"
	"repro/internal/stats"
)

// PlatformDiff is one Figure 5 curve: the distribution of latency
// differences (Speedchecker − Atlas) towards the nearest datacenter on
// one continent. Negative values mean Speedchecker was faster.
type PlatformDiff struct {
	Continent geo.Continent
	// Diffs are percentile-matched differences between the two
	// platforms' nearest-DC distributions (1st..99th percentile).
	Diffs []float64
	// AtlasFasterShare is the fraction of the distribution where Atlas
	// wins (diff > 0).
	AtlasFasterShare float64
	NSC, NAtlas      int
}

// percentileGrid returns {from/100, ..., to/100} stepping by step
// percentage points — the probe grids of Figures 5 and 16.
func percentileGrid(from, to, step int) []float64 {
	var out []float64
	for p := from; p <= to; p += step {
		out = append(out, float64(p)/100)
	}
	return out
}

var (
	centiles = percentileGrid(1, 99, 1) // Figure 5: 1st..99th
	ventiles = percentileGrid(5, 95, 5) // Figure 16: 5th..95th by 5
)

// PlatformComparisonFrom computes Figure 5 from per-continent
// nearest-DC sample sets of the two platforms. A continent sampled on
// both is copied and sorted once per platform for all 99 percentiles.
func PlatformComparisonFrom(sc, at map[geo.Continent][]float64) []PlatformDiff {
	scs := make(map[string]stats.Sorted, len(sc))
	ats := make(map[string]stats.Sorted, len(at))
	for cont, xs := range sc {
		if ys := at[cont]; len(xs) > 0 && len(ys) > 0 {
			scs[cont.String()], ats[cont.String()] = stats.SortedCopy(xs), stats.SortedCopy(ys)
		}
	}
	return PlatformComparisonOf(scs, ats)
}

// PlatformComparisonOf is the Figure 5 kernel over per-continent
// distributions keyed by continent name. The two platforms measure from
// different probes, so the comparison matches distributions percentile
// by percentile, the standard approach for unpaired samples.
func PlatformComparisonOf[D stats.Distribution](sc, at map[string]D) []PlatformDiff {
	var out []PlatformDiff
	bs := make([]float64, 0, len(centiles))
	for _, cont := range geo.Continents() {
		a, ok1 := sc[cont.String()]
		b, ok2 := at[cont.String()]
		if !ok1 || !ok2 || a.N() == 0 || b.N() == 0 {
			continue
		}
		d := PlatformDiff{Continent: cont, NSC: a.N(), NAtlas: b.N()}
		d.Diffs = a.Quantiles(make([]float64, 0, len(centiles)), centiles)
		atlasFaster := 0
		for i, qb := range b.Quantiles(bs[:0], centiles) {
			d.Diffs[i] -= qb
			if d.Diffs[i] > 0 {
				atlasFaster++
			}
		}
		d.AtlasFasterShare = float64(atlasFaster) / float64(len(centiles))
		out = append(out, d)
	}
	return out
}

// MatchedDiff is one Figure 16 curve: like Figure 5, but only over
// probe groups present on both platforms with the same serving ISP in
// the same country (the paper's <city, ASN> first-hop match). Continents
// without enough matched groups are excluded, as in the paper (AF, SA,
// OC).
type MatchedDiff struct {
	Continent     geo.Continent
	Diffs         []float64
	MatchedGroups int
}

// MatchedComparisonFrom computes Figure 16 from the two platforms'
// nearest-DC assignments. minGroups is the minimum number of matched
// <country, ISP> groups per continent (the paper found enough only in
// EU, NA and AS).
func MatchedComparisonFrom(scNA, atNA NearestAssignment, minGroups int) []MatchedDiff {
	type group struct {
		country string
		isp     uint32
	}
	collect := func(na NearestAssignment) map[group]map[geo.Continent][]float64 {
		out := make(map[group]map[geo.Continent][]float64)
		for probe, xs := range na.Samples {
			vp := na.Meta[probe]
			g := group{vp.Country, uint32(vp.ISP)}
			if out[g] == nil {
				out[g] = make(map[geo.Continent][]float64)
			}
			out[g][vp.Continent] = append(out[g][vp.Continent], xs...)
		}
		return out
	}
	sc := collect(scNA)
	at := collect(atNA)

	perCont := make(map[geo.Continent][]float64)
	groups := make(map[geo.Continent]int)
	var keys []group
	for g := range sc {
		if _, ok := at[g]; ok {
			keys = append(keys, g)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].country != keys[j].country {
			return keys[i].country < keys[j].country
		}
		return keys[i].isp < keys[j].isp
	})
	for _, g := range keys {
		for cont, xs := range sc[g] {
			ys := at[g][cont]
			if len(xs) == 0 || len(ys) == 0 {
				continue
			}
			groups[cont]++
			as, err1 := stats.Quantiles(xs, ventiles...)
			bs, err2 := stats.Quantiles(ys, ventiles...)
			if err1 != nil || err2 != nil {
				continue
			}
			for i := range as {
				perCont[cont] = append(perCont[cont], as[i]-bs[i])
			}
		}
	}
	var out []MatchedDiff
	for _, cont := range geo.Continents() {
		if groups[cont] < minGroups {
			continue
		}
		out = append(out, MatchedDiff{Continent: cont, Diffs: perCont[cont], MatchedGroups: groups[cont]})
	}
	return out
}

// ProtocolComparison is one Figure 15 pair of boxes: ICMP vs TCP
// latency on one continent over Speedchecker, compared per
// <country, datacenter> pair as §3.3 does.
type ProtocolComparison struct {
	Continent geo.Continent
	// TCP and ICMP summarize the per-<country, datacenter> median
	// latencies under each protocol.
	TCP, ICMP stats.FiveNum
	// MedianGapPct is the median over pairs of (ICMP−TCP)/TCP, in
	// percent; §3.3 reports it within about 2% on Speedchecker.
	MedianGapPct float64
	Pairs        int
}
