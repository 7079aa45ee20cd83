package store

import "testing"

// BenchmarkStoreQuery measures the sharded fan-out + merge path for each
// figure query against the fixture campaign.
func BenchmarkStoreQuery(b *testing.B) {
	st, _, _ := fixtureStore(b, 8)
	b.Run("LatencyMap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.LatencyMap(10)
		}
	})
	b.Run("ContinentCDFs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.ContinentCDFs("speedchecker")
		}
	})
	b.Run("PlatformDiff", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.PlatformDiff()
		}
	})
	b.Run("Changepoint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.Changepoint("speedchecker", 7, 0)
		}
	})
	b.Run("PeeringShares", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.PeeringShares()
		}
	})
}

// BenchmarkStoreBuild measures ingest + seal, the one-time cost paid at
// `cloudy serve` startup.
func BenchmarkStoreBuild(b *testing.B) {
	ds, processed := fixtureDataset(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromDataset(ds, processed, Options{Shards: 8})
	}
}
