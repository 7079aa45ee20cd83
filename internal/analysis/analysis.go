// Package analysis computes every table and figure of the paper's
// evaluation from a collected dataset: the latency geography of §4, the
// platform comparison of §4.2, the wireless last-mile isolation of §5,
// and the peering analyses of §6. Each figure has one kernel, so the
// benchmark harness, the report renderer and every store backend share
// identical results. The distribution figures (3, 4, 5) are written
// once over stats.Distribution (LatencyMapOf, ...): sorted vectors
// answer them exactly, the segment reader's t-digests approximately.
package analysis

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/geo"
)

// QoE thresholds of §2.1, in milliseconds.
const (
	MTPms = 20  // Motion-to-Photon: immersive AR/VR
	HPLms = 100 // Human-Perceivable Latency: cloud gaming
	HRTms = 250 // Human Reaction Time: human-controlled tasks
)

// Band is the latency group used by the Figure 3 world map.
type Band uint8

// Figure 3 latency bands.
const (
	BandUnder30 Band = iota
	Band30to60
	Band60to100
	Band100to250
	BandOver250
)

// String returns the legend label.
func (b Band) String() string {
	switch b {
	case BandUnder30:
		return "<30 ms"
	case Band30to60:
		return "30-60 ms"
	case Band60to100:
		return "60-100 ms"
	case Band100to250:
		return "100-250 ms"
	default:
		return ">250 ms"
	}
}

// BandOf buckets a median latency.
func BandOf(ms float64) Band {
	switch {
	case ms < 30:
		return BandUnder30
	case ms < 60:
		return Band30to60
	case ms < 100:
		return Band60to100
	case ms < 250:
		return Band100to250
	default:
		return BandOver250
	}
}

// nearestKey groups samples per <probe, region>.
type nearestKey struct {
	probe  string
	region string
}

// NearestAssignment maps each probe to its closest datacenter —
// "closest" defined as the paper does: the region with the lowest mean
// latency over time (footnote 1, §4.1) among same-continent targets.
type NearestAssignment struct {
	// Region is the closest region ID per probe.
	Region map[string]string
	// Samples holds every RTT from the probe to its closest region.
	Samples map[string][]float64
	// Cycles holds the normalized campaign cycle of each sample,
	// aligned index-for-index with Samples — the time axis the
	// partitioned store buckets by.
	Cycles map[string][]int32
	// Meta keeps one representative record per probe for grouping.
	Meta map[string]dataset.VantagePoint
}

// ByCountry regroups nearest-DC samples per VP country. The sharded
// measurement store ingests this regrouping, so it is exported.
func (na NearestAssignment) ByCountry() map[string][]float64 {
	out := make(map[string][]float64)
	for probe, xs := range na.Samples {
		out[na.Meta[probe].Country] = append(out[na.Meta[probe].Country], xs...)
	}
	return out
}

// ByContinent regroups nearest-DC samples per VP continent.
func (na NearestAssignment) ByContinent() map[geo.Continent][]float64 {
	out := make(map[geo.Continent][]float64)
	for probe, xs := range na.Samples {
		out[na.Meta[probe].Continent] = append(out[na.Meta[probe].Continent], xs...)
	}
	return out
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
