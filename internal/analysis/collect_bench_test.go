package analysis

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geo"
)

// BenchmarkStreamingVsMaterialized pits the two export-analysis paths
// against each other over the same CSV bytes:
//
//   - materialized: decode the whole export into a dataset.Store, then
//     run every ping figure as an independent full scan (the legacy
//     batch entry points);
//   - streaming: pull the export through the codec cursor into one
//     single pass of Aggregates.Add and answer every figure from it.
//
// The streaming side never materializes the record slice, so its
// allocations are bounded by the grouped sample lists.
func BenchmarkStreamingVsMaterialized(b *testing.B) {
	f := testData(b)
	var pingsCSV bytes.Buffer
	if err := dataset.WritePingsCSV(&pingsCSV, f.store.Pings); err != nil {
		b.Fatal(err)
	}
	raw := pingsCSV.Bytes()
	africa := []string{"DZ", "EG", "ET", "KE", "MA", "SN", "TN", "ZA"}
	africaTargets := []geo.Continent{geo.EU, geo.NA, geo.AF}

	b.Run("materialized", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pings, err := dataset.ReadPingsCSV(bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			ds := dataset.FromRecords(pings, nil)
			_ = CollectStore(ds).LatencyMap(10)
			_ = CollectStore(ds).ContinentDistributions("speedchecker")
			_ = CollectStore(ds).ContinentDistributions("atlas")
			_ = CollectStore(ds).PlatformComparison()
			_ = CollectStore(ds).MatchedComparison(3)
			_ = CollectStore(ds).ProtocolComparisons()
			_ = CollectStore(ds).ProviderComparison(5)
			_ = CollectStore(ds).InterContinental(africa, africaTargets)
		}
	})
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			agg, cur := NewAggregates(), dataset.NewPingCursor(bytes.NewReader(raw))
			for {
				r, ok, err := cur.Next()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
				agg.Add(&r)
			}
			_ = agg.LatencyMap(10)
			_ = agg.ContinentDistributions("speedchecker")
			_ = agg.ContinentDistributions("atlas")
			_ = agg.PlatformComparison()
			_ = agg.MatchedComparison(3)
			_ = agg.ProtocolComparisons()
			_ = agg.ProviderComparison(5)
			_ = agg.InterContinental(africa, africaTargets)
		}
	})
}
