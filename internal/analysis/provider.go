package analysis

import (
	"repro/internal/geo"
	"repro/internal/stats"
)

// ProviderLatency is one provider's nearest-DC latency distribution on
// one continent.
type ProviderLatency struct {
	Provider string
	Box      stats.FiveNum
	N        int
}

// ProviderConsistency captures the paper's conclusion that "cloud
// performance is almost consistent and comparable across providers in
// continents hosting developed countries": per continent, the
// per-provider medians and their spread.
type ProviderConsistency struct {
	Continent geo.Continent
	Providers []ProviderLatency
	// MedianSpreadMs is max−min of the per-provider medians.
	MedianSpreadMs float64
	// MaxKS is the largest two-sample KS distance between any provider
	// pair's distributions — 0 means identical, 1 disjoint.
	MaxKS float64
}
