package serve_test

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/admit"
	"repro/internal/serve"
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
