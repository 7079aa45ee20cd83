package analysis

import (
	"repro/internal/geo"
	"repro/internal/stats"
)

// CountryLatency is one Figure 3 map entry: the median RTT from a
// country's probes to their closest same-continent datacenter.
type CountryLatency struct {
	Country   string
	Continent geo.Continent
	MedianMs  float64
	// CILowMs and CIHighMs bound the median at 95% confidence: the
	// order statistics x_(j), x_(n+1−j) of stats.MedianCI, estimated at
	// the same ranks on a sketch — the per-country counterpart of the
	// paper's §3.3 sample-size requirement.
	CILowMs  float64
	CIHighMs float64
	Band     Band
	Samples  int
}

// LatencyMapFrom computes Figure 3 from per-country nearest-DC sample
// sets, however they were materialized — a one-pass Collect or the
// sharded measurement store's merged vectors. Each set is copied and
// sorted first, so the answer cannot depend on sample order.
func LatencyMapFrom(byCountry map[string][]float64, minSamples int) []CountryLatency {
	sorted := make(map[string]stats.Sorted, len(byCountry))
	for cc, xs := range byCountry {
		if len(xs) >= minSamples {
			sorted[cc] = stats.SortedCopy(xs)
		}
	}
	return LatencyMapOf(sorted, minSamples)
}

// LatencyMapOf is the Figure 3 kernel over any representation of the
// per-country distributions: countries with fewer than minSamples
// samples are skipped (the paper required at least 100 probes per
// country), the rest report their median and its 95 % order-statistic
// interval, in country-code order.
func LatencyMapOf[D stats.Distribution](byCountry map[string]D, minSamples int) []CountryLatency {
	var out []CountryLatency
	for _, cc := range sortedKeys(byCountry) {
		d := byCountry[cc]
		n := d.N()
		if n == 0 || n < minSamples {
			continue
		}
		c, ok := geo.CountryByCode(cc)
		if !ok {
			continue
		}
		med := d.Quantile(0.5)
		lo, hi := stats.MedianCI(d)
		out = append(out, CountryLatency{
			Country: cc, Continent: c.Continent,
			MedianMs: med, CILowMs: lo, CIHighMs: hi,
			Band: BandOf(med), Samples: n,
		})
	}
	return out
}

// ThresholdSummary is the §4.1 takeaway: how many countries meet each
// QoE threshold at the median.
type ThresholdSummary struct {
	Countries int
	UnderMTP  int
	UnderHPL  int
	UnderHRT  int
}

// Thresholds summarizes a latency map against MTP/HPL/HRT.
func Thresholds(entries []CountryLatency) ThresholdSummary {
	s := ThresholdSummary{Countries: len(entries)}
	for _, e := range entries {
		if e.MedianMs < MTPms {
			s.UnderMTP++
		}
		if e.MedianMs < HPLms {
			s.UnderHPL++
		}
		if e.MedianMs < HRTms {
			s.UnderHRT++
		}
	}
	return s
}

// ContinentDistribution is one Figure 4 curve: the distribution of all
// nearest-DC RTT samples from one continent.
type ContinentDistribution struct {
	Continent geo.Continent
	CDF       stats.CDF
	// Fractions of samples under each QoE threshold.
	UnderMTP, UnderHPL, UnderHRT float64
	N                            int
}

// ContinentDistributionsFrom computes Figure 4 from per-continent
// nearest-DC sample sets, each copied and sorted first.
func ContinentDistributionsFrom(byCont map[geo.Continent][]float64) []ContinentDistribution {
	sorted := make(map[string]stats.Sorted, len(byCont))
	for cont, xs := range byCont {
		sorted[cont.String()] = stats.SortedCopy(xs)
	}
	return ContinentDistributionsOf(sorted)
}

// ContinentDistributionsOf is the Figure 4 kernel: per continent, keyed
// by its name, the plottable CDF and the shares under each QoE
// threshold.
func ContinentDistributionsOf[D stats.Distribution](byCont map[string]D) []ContinentDistribution {
	var out []ContinentDistribution
	for _, cont := range geo.Continents() {
		d, ok := byCont[cont.String()]
		if !ok || d.N() == 0 {
			continue
		}
		out = append(out, ContinentDistribution{
			Continent: cont, CDF: d.Curve(),
			UnderMTP: d.CDF(MTPms), UnderHPL: d.CDF(HPLms), UnderHRT: d.CDF(HRTms),
			N: d.N(),
		})
	}
	return out
}

// InterContinentBox is one Figure 6 box: latency from one country's
// probes to the nearest datacenter on one target continent.
type InterContinentBox struct {
	Country         string
	TargetContinent geo.Continent
	Box             stats.FiveNum
}

func containsString(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func containsContinent(s []geo.Continent, v geo.Continent) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
