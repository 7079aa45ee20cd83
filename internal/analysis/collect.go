package analysis

import (
	"sort"

	"repro/internal/cloud"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/sample"
	"repro/internal/stats"
)

// This file is the single-pass core of the analysis package: one scan
// over a ping stream accumulates every grouped aggregate the figure
// functions need, so a report costs one pass instead of seven. A
// materialized *dataset.Store goes through the same scan (CollectStore):
// per-group Welford sums and sample lists accumulate in stream order.

// NearestCollector accumulates the closest-datacenter assignment of one
// platform incrementally. Feed every record through Add (non-matching
// records are ignored), then call Finalize once the stream ends; the
// collector must not be reused afterwards.
type NearestCollector struct {
	platform string
	sums     map[nearestKey]*stats.Welford
	samples  map[nearestKey][]float64
	cycles   map[nearestKey][]int32
	meta     map[string]dataset.VantagePoint
}

// NewNearestCollector returns a collector for one platform's pings.
// Speedchecker uses TCP and ICMP interchangeably, Atlas only TCP,
// exactly as §3.3 prescribes.
func NewNearestCollector(platform string) *NearestCollector {
	return &NearestCollector{
		platform: platform,
		sums:     make(map[nearestKey]*stats.Welford),
		samples:  make(map[nearestKey][]float64),
		cycles:   make(map[nearestKey][]int32),
		meta:     make(map[string]dataset.VantagePoint),
	}
}

func (c *NearestCollector) use(r *dataset.PingRecord) bool {
	if r.VP.Platform != c.platform || r.Target.Continent != r.VP.Continent {
		return false
	}
	return c.platform == "speedchecker" || r.Protocol == dataset.TCP
}

// Add feeds one record into the collector.
func (c *NearestCollector) Add(r *dataset.PingRecord) {
	if !c.use(r) {
		return
	}
	k := nearestKey{r.VP.ProbeID, r.Target.Region}
	w := c.sums[k]
	if w == nil {
		w = &stats.Welford{}
		c.sums[k] = w
	}
	w.Add(r.RTTms)
	c.samples[k] = append(c.samples[k], r.RTTms)
	c.cycles[k] = append(c.cycles[k], int32(sample.CampaignCycle(r.Cycle)))
	c.meta[r.VP.ProbeID] = r.VP
}

// Finalize picks each probe's lowest-mean region (footnote 1, §4.1) and
// returns the assignment. Sample lists keep stream order, so the result
// is bit-identical to the two-pass batch scan it replaces.
func (c *NearestCollector) Finalize() NearestAssignment {
	best := make(map[string]string)
	bestMean := make(map[string]float64)
	for k, w := range c.sums {
		m, seen := bestMean[k.probe]
		//lint:ignore floateq exact tie of identically-accumulated means; the region-name tie-break keeps the winner independent of map order
		if !seen || w.Mean() < m || (w.Mean() == m && k.region < best[k.probe]) {
			best[k.probe] = k.region
			bestMean[k.probe] = w.Mean()
		}
	}
	out := NearestAssignment{
		Region:  best,
		Samples: make(map[string][]float64, len(best)),
		Cycles:  make(map[string][]int32, len(best)),
		Meta:    c.meta,
	}
	for probe, region := range best {
		out.Samples[probe] = c.samples[nearestKey{probe, region}]
		out.Cycles[probe] = c.cycles[nearestKey{probe, region}]
	}
	return out
}

// interCollector accumulates the Figure 6 grouping: per
// <VP country, target continent, region> mean and samples over all
// Speedchecker pings. The country/continent filter is applied at query
// time, so one collection serves every InterContinental call.
type interKey struct {
	country string
	cont    geo.Continent
	region  string
}

type interGroup struct {
	country string
	cont    geo.Continent
}

type interCollector struct {
	sums  map[interKey]*stats.Welford
	lists map[interKey][]float64
}

func newInterCollector() *interCollector {
	return &interCollector{
		sums:  make(map[interKey]*stats.Welford),
		lists: make(map[interKey][]float64),
	}
}

func (c *interCollector) add(r *dataset.PingRecord) {
	if r.VP.Platform != "speedchecker" {
		return
	}
	k := interKey{r.VP.Country, r.Target.Continent, r.Target.Region}
	w := c.sums[k]
	if w == nil {
		w = &stats.Welford{}
		c.sums[k] = w
	}
	w.Add(r.RTTms)
	c.lists[k] = append(c.lists[k], r.RTTms)
}

func (c *interCollector) boxes(countries []string, targets []geo.Continent) []InterContinentBox {
	best := make(map[interGroup]string)
	bestMean := make(map[interGroup]float64)
	for k, w := range c.sums {
		if !containsString(countries, k.country) || !containsContinent(targets, k.cont) {
			continue
		}
		g := interGroup{k.country, k.cont}
		//lint:ignore floateq exact tie of identically-accumulated means; the region-name tie-break keeps the winner independent of map order
		if m, ok := bestMean[g]; !ok || w.Mean() < m || (w.Mean() == m && k.region < best[g]) {
			best[g] = k.region
			bestMean[g] = w.Mean()
		}
	}
	var out []InterContinentBox
	for _, cc := range countries {
		for _, tc := range targets {
			region, ok := best[interGroup{cc, tc}]
			if !ok {
				continue
			}
			xs := c.lists[interKey{cc, tc, region}]
			if len(xs) == 0 {
				continue
			}
			box, err := stats.Summarize(xs)
			if err != nil {
				continue
			}
			out = append(out, InterContinentBox{Country: cc, TargetContinent: tc, Box: box})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Country != out[j].Country {
			return out[i].Country < out[j].Country
		}
		return out[i].TargetContinent < out[j].TargetContinent
	})
	return out
}

// protoCollector accumulates the Figure 15 grouping: samples per
// <protocol, continent, country, region> over Speedchecker pings.
type protoKey struct {
	proto   dataset.Protocol
	cont    geo.Continent
	country string
	region  string
}

type protoCollector struct {
	lists map[protoKey][]float64
}

func newProtoCollector() *protoCollector {
	return &protoCollector{lists: make(map[protoKey][]float64)}
}

func (c *protoCollector) add(r *dataset.PingRecord) {
	if r.VP.Platform != "speedchecker" {
		return
	}
	k := protoKey{r.Protocol, r.VP.Continent, r.VP.Country, r.Target.Region}
	c.lists[k] = append(c.lists[k], r.RTTms)
}

func (c *protoCollector) comparisons() []ProtocolComparison {
	perCont := map[geo.Continent]struct {
		tcp, icmp []float64
		gaps      []float64
	}{}
	for k, tcpSamples := range c.lists {
		if k.proto != dataset.TCP {
			continue
		}
		icmpSamples := c.lists[protoKey{dataset.ICMP, k.cont, k.country, k.region}]
		if len(tcpSamples) == 0 || len(icmpSamples) == 0 {
			continue
		}
		mt, err1 := stats.Median(tcpSamples)
		mi, err2 := stats.Median(icmpSamples)
		if err1 != nil || err2 != nil || mt <= 0 {
			continue
		}
		agg := perCont[k.cont]
		agg.tcp = append(agg.tcp, mt)
		agg.icmp = append(agg.icmp, mi)
		agg.gaps = append(agg.gaps, 100*(mi-mt)/mt)
		perCont[k.cont] = agg
	}
	var out []ProtocolComparison
	for _, cont := range geo.Continents() {
		agg, ok := perCont[cont]
		if !ok || len(agg.tcp) == 0 {
			continue
		}
		bt, err1 := stats.Summarize(agg.tcp)
		bi, err2 := stats.Summarize(agg.icmp)
		gap, err3 := stats.Median(agg.gaps)
		if err1 != nil || err2 != nil || err3 != nil {
			continue
		}
		out = append(out, ProtocolComparison{
			Continent: cont, TCP: bt, ICMP: bi,
			MedianGapPct: gap, Pairs: len(agg.tcp),
		})
	}
	return out
}

// providerCollector accumulates the per-provider analogue of Nearest:
// per <probe, figure provider, region> mean and samples.
type ppRegionKey struct {
	probe    string
	provider string
	region   string
}

type ppGroup struct {
	probe    string
	provider string
}

type ppAgg struct {
	w    stats.Welford
	xs   []float64
	cont geo.Continent
}

type providerCollector struct {
	groups map[ppRegionKey]*ppAgg
}

func newProviderCollector() *providerCollector {
	return &providerCollector{groups: make(map[ppRegionKey]*ppAgg)}
}

func (c *providerCollector) add(r *dataset.PingRecord) {
	if r.VP.Platform != "speedchecker" || r.Target.Continent != r.VP.Continent {
		return
	}
	prov := figureProvider(r.Target.Provider)
	if prov == "" {
		return
	}
	k := ppRegionKey{r.VP.ProbeID, prov, r.Target.Region}
	agg := c.groups[k]
	if agg == nil {
		agg = &ppAgg{cont: r.VP.Continent}
		c.groups[k] = agg
	}
	agg.w.Add(r.RTTms)
	agg.xs = append(agg.xs, r.RTTms)
}

func (c *providerCollector) consistency(minSamples int) []ProviderConsistency {
	best := make(map[ppGroup]string)
	bestMean := make(map[ppGroup]float64)
	for k, agg := range c.groups {
		g := ppGroup{k.probe, k.provider}
		//lint:ignore floateq exact tie of identically-accumulated means; the region-name tie-break keeps the winner independent of map order
		if m, ok := bestMean[g]; !ok || agg.w.Mean() < m || (agg.w.Mean() == m && k.region < best[g]) {
			best[g] = k.region
			bestMean[g] = agg.w.Mean()
		}
	}
	// Pool winning groups per <continent, provider>. The pooling order
	// differs from the old store-order scan, but every consumer below
	// (Summarize, KolmogorovSmirnov) sorts internally, so the figures
	// are unchanged; iterate sorted groups for determinism regardless.
	winners := make([]ppGroup, 0, len(best))
	for g := range best {
		winners = append(winners, g)
	}
	sort.Slice(winners, func(i, j int) bool {
		if winners[i].probe != winners[j].probe {
			return winners[i].probe < winners[j].probe
		}
		return winners[i].provider < winners[j].provider
	})
	type cpKey struct {
		cont geo.Continent
		prov string
	}
	samples := make(map[cpKey][]float64)
	for _, g := range winners {
		agg := c.groups[ppRegionKey{g.probe, g.provider, best[g]}]
		key := cpKey{agg.cont, g.provider}
		samples[key] = append(samples[key], agg.xs...)
	}

	var out []ProviderConsistency
	for _, cont := range geo.Continents() {
		pc := ProviderConsistency{Continent: cont}
		var dists [][]float64
		for _, prov := range cloud.FigureProviderCodes() {
			xs := samples[cpKey{cont, prov}]
			if len(xs) < minSamples {
				continue
			}
			box, err := stats.Summarize(xs)
			if err != nil {
				continue
			}
			pc.Providers = append(pc.Providers, ProviderLatency{Provider: prov, Box: box, N: len(xs)})
			dists = append(dists, xs)
		}
		if len(pc.Providers) < 2 {
			continue
		}
		lo, hi := pc.Providers[0].Box.Median, pc.Providers[0].Box.Median
		for _, p := range pc.Providers[1:] {
			if p.Box.Median < lo {
				lo = p.Box.Median
			}
			if p.Box.Median > hi {
				hi = p.Box.Median
			}
		}
		pc.MedianSpreadMs = hi - lo
		for i := range dists {
			for j := i + 1; j < len(dists); j++ {
				if d, err := stats.KolmogorovSmirnov(dists[i], dists[j]); err == nil && d > pc.MaxKS {
					pc.MaxKS = d
				}
			}
		}
		sort.Slice(pc.Providers, func(i, j int) bool {
			return pc.Providers[i].Box.Median < pc.Providers[j].Box.Median
		})
		out = append(out, pc)
	}
	return out
}

// Aggregates holds every grouped reduction one pass over a ping stream
// can pre-compute: the nearest-DC assignments of both platforms, the
// inter-continent grouping, the protocol pairs and the per-provider
// grouping. All ping figures draw from it — Collect once, then ask for
// LatencyMap, ContinentDistributions, PlatformComparison,
// MatchedComparison, ProtocolComparisons, ProviderComparison and
// InterContinental without touching the records again.
type Aggregates struct {
	sc        *NearestCollector
	atlas     *NearestCollector
	inter     *interCollector
	protos    *protoCollector
	providers *providerCollector

	scNA *NearestAssignment // lazily finalized
	atNA *NearestAssignment
}

// NewAggregates returns an empty accumulator; feed it with Add or let
// Collect drain a Source into it.
func NewAggregates() *Aggregates {
	return &Aggregates{
		sc:        NewNearestCollector("speedchecker"),
		atlas:     NewNearestCollector("atlas"),
		inter:     newInterCollector(),
		protos:    newProtoCollector(),
		providers: newProviderCollector(),
	}
}

// Add feeds one ping into every collector.
func (a *Aggregates) Add(r *dataset.PingRecord) {
	a.sc.Add(r)
	a.atlas.Add(r)
	a.inter.add(r)
	a.protos.add(r)
	a.providers.add(r)
}

// CollectStore is the batch adapter: one pass over the materialized
// store's pings.
func CollectStore(store *dataset.Store) *Aggregates {
	a := NewAggregates()
	for i := range store.Pings {
		a.Add(&store.Pings[i])
	}
	return a
}

// Nearest returns the (cached) closest-datacenter assignment for
// "speedchecker" or "atlas"; other platforms yield an empty assignment.
func (a *Aggregates) Nearest(platform string) NearestAssignment {
	switch platform {
	case "speedchecker":
		if a.scNA == nil {
			na := a.sc.Finalize()
			a.scNA = &na
		}
		return *a.scNA
	case "atlas":
		if a.atNA == nil {
			na := a.atlas.Finalize()
			a.atNA = &na
		}
		return *a.atNA
	}
	return NearestAssignment{}
}

// LatencyMap computes Figure 3 from the collected aggregates.
func (a *Aggregates) LatencyMap(minSamples int) []CountryLatency {
	return LatencyMapFrom(a.Nearest("speedchecker").ByCountry(), minSamples)
}

// ContinentDistributions computes Figure 4 for one platform.
func (a *Aggregates) ContinentDistributions(platform string) []ContinentDistribution {
	return ContinentDistributionsFrom(a.Nearest(platform).ByContinent())
}

// PlatformComparison computes Figure 5.
func (a *Aggregates) PlatformComparison() []PlatformDiff {
	return PlatformComparisonFrom(
		a.Nearest("speedchecker").ByContinent(),
		a.Nearest("atlas").ByContinent())
}

// MatchedComparison computes Figure 16.
func (a *Aggregates) MatchedComparison(minGroups int) []MatchedDiff {
	return MatchedComparisonFrom(a.Nearest("speedchecker"), a.Nearest("atlas"), minGroups)
}

// ProtocolComparisons computes Figure 15. Comparing matched
// <country, datacenter> pairs (rather than pooled samples) is what the
// paper does, and it keeps the comparison meaningful on continents with
// strongly multi-modal latency.
func (a *Aggregates) ProtocolComparisons() []ProtocolComparison {
	return a.protos.comparisons()
}

// ProviderComparison computes per-continent provider consistency from
// Speedchecker TCP pings towards each probe's nearest same-continent
// region of every provider. Providers with fewer than minSamples
// samples on a continent are skipped.
func (a *Aggregates) ProviderComparison(minSamples int) []ProviderConsistency {
	return a.providers.consistency(minSamples)
}

// InterContinental computes Figure 6a/6b: for each listed VP country,
// the distribution of RTTs towards the closest DC on each target
// continent — "closest" per <country, target continent> as the region
// with the lowest mean RTT. All Speedchecker samples (both protocols,
// as the paper uses all recorded measurements here) are included.
func (a *Aggregates) InterContinental(countries []string, targets []geo.Continent) []InterContinentBox {
	return a.inter.boxes(countries, targets)
}
