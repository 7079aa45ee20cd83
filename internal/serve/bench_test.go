package serve_test

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/admit"
	"repro/internal/cloud"
	"repro/internal/geo"
	"repro/internal/pipeline"
	"repro/internal/segment"
	"repro/internal/serve"
	"repro/internal/store"
)

// BenchmarkServeCachedVsCold compares a repeat query answered from the
// LRU cache against one that must re-run the shard fan-out + merge.
// Every request comes from one RemoteAddr, so admission stays on with a
// per-client quota above anything the loop can offer.
func BenchmarkServeCachedVsCold(b *testing.B) {
	st, _, _ := fixture(b)
	srv := serve.New(st, serve.Options{Admit: admit.Options{RatePerSec: 1e6, Burst: 1e6}})
	h := srv.Handler()
	get := func(path string) int {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}

	b.Run("Cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			srv.InvalidateCache()
			if code := get("/v1/latency-map"); code != http.StatusOK {
				b.Fatalf("status %d", code)
			}
		}
	})
	b.Run("Cached", func(b *testing.B) {
		get("/v1/latency-map") // warm the cache once
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if code := get("/v1/latency-map"); code != http.StatusOK {
				b.Fatalf("status %d", code)
			}
		}
	})
}

// coldFigureStore seals a store shaped like the repository benchmark's
// fixture: 4 shards × 4 partitions over 12 cycles, 60 000 rows spread
// zipf(0.9) over every country, ten providers, 80/20
// speedchecker/atlas, peering tallies on every cycle.
func coldFigureStore(b *testing.B) *store.Store {
	const rows, cycles = 60000, 12
	rng := rand.New(rand.NewSource(1))
	providers := cloud.NewInventory().ProviderCodes()
	countries := geo.AllCountries()
	sb := store.NewBuilder(store.Options{Shards: 4, Partitions: 4, Cycles: cycles})
	var norm float64
	for i := range countries {
		norm += math.Pow(float64(i+1), -0.9)
	}
	for i, c := range countries {
		n := int(math.Round(rows * math.Pow(float64(i+1), -0.9) / norm))
		base := 20 + 80*rng.Float64()
		for k := 0; k < n; k++ {
			platform := "speedchecker"
			if k%5 == 4 {
				platform = "atlas"
			}
			sb.Add(store.Sample{
				Platform: platform, Country: c.Code, Continent: c.Continent,
				Provider: providers[rng.Intn(len(providers))],
				RTTms:    base * (0.75 + 0.5*rng.Float64()),
				Cycle:    rng.Intn(cycles),
			})
		}
	}
	for cyc := 0; cyc < cycles; cyc++ {
		counts := map[string]map[pipeline.Class]int{}
		for _, p := range providers {
			counts[p] = map[pipeline.Class]int{
				pipeline.ClassDirect: 20 + rng.Intn(60),
				pipeline.ClassPublic: 5 + rng.Intn(25),
			}
		}
		sb.AddPeeringCountsAt(cyc, counts)
	}
	return sb.Seal()
}

// BenchmarkColdFigures runs every figure endpoint through Handler() on
// each backend — the memory store, the exact segment reader and the
// sketch segment reader — over the whole campaign and over a window
// that cuts partitions (where the sketch reader falls back to its exact
// path). The cache is purged before every request, so each iteration
// pays the gather, the kernel and the encode.
func BenchmarkColdFigures(b *testing.B) {
	st := coldFigureStore(b)
	dir := b.TempDir()
	if err := segment.Write(dir, st); err != nil {
		b.Fatal(err)
	}
	exact, err := segment.Open(dir, segment.Options{Exact: true})
	if err != nil {
		b.Fatal(err)
	}
	defer exact.Close()
	sketched, err := segment.Open(dir, segment.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer sketched.Close()

	backends := []struct {
		name string
		q    serve.Querier
	}{{"memory", st}, {"segment-exact", exact}, {"segment-sketch", sketched}}
	// Partitions span cycles [0,3) [3,6) [6,9) [9,12); each cut path
	// splits at least one of them.
	figures := []struct{ name, whole, cut string }{
		{"latency-map", "/v1/latency-map", "/v1/latency-map?from=2&to=10"},
		{"cdf", "/v1/cdf?platform=speedchecker", "/v1/cdf?platform=speedchecker&from=2&to=10"},
		{"platform-diff", "/v1/platform-diff", "/v1/platform-diff?from=2&to=10"},
		{"changepoint", "/v1/changepoint?platform=speedchecker&at=6", "/v1/changepoint?platform=speedchecker&at=5&width=2"},
		{"peering-shares", "/v1/peering-shares", "/v1/peering-shares?from=2&to=10"},
	}
	for _, be := range backends {
		srv := serve.New(be.q, serve.Options{Admit: admit.Options{RatePerSec: 1e6, Burst: 1e6}})
		h := srv.Handler()
		for _, fig := range figures {
			for _, win := range []struct{ name, path string }{{"whole", fig.whole}, {"cut", fig.cut}} {
				b.Run(be.name+"/"+fig.name+"/"+win.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						srv.InvalidateCache()
						if rec := doGet(h, win.path, nil); rec.Code != http.StatusOK {
							b.Fatalf("GET %s = %d", win.path, rec.Code)
						}
					}
				})
			}
		}
	}
}
