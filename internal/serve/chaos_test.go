package serve_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// chaosPaths is the request mix of the chaos run: the figure endpoints
// in dashboard order.
var chaosPaths = []string{
	"/v1/latency-map",
	"/v1/cdf?platform=speedchecker",
	"/v1/cdf?platform=atlas",
	"/v1/platform-diff",
	"/v1/peering-shares",
}

// TestChaosLiveResealUnderLoad is the zero-drop proof: 1024 concurrent
// clients hammer the handler — four GETs each over two paths, the
// second GET of a path revalidating with the ETag of the first — while
// the store is live-swapped between two different datasets every few
// milliseconds. The run must finish with
//
//   - zero anomalies — every response is 200, 304, 429 or 503, nothing
//     else (no 500s, no timeouts, no torn reads);
//   - zero mixed-epoch bodies — every 200 body is byte-identical to
//     the canonical body of the store its X-Store-Epoch names;
//   - at least two store epochs observed by the clients;
//   - the quota, shed and swap counters visible on /v1/metricsz.
func TestChaosLiveResealUnderLoad(t *testing.T) {
	reg := obs.NewRegistry()
	_, ds, processed := fixture(t)
	stA := store.FromDataset(ds, processed, store.Options{Shards: 4, Obs: reg})
	stB := altStore(store.Options{Shards: 4, Obs: reg})

	// Canonical bodies per store for every path in the chaos mix. The
	// stores are sealed and the queries deterministic, so each (store,
	// path) pair has exactly one 200 body.
	canon := map[string]string{} // body → "A" or "B"
	for name, st := range map[string]serve.Querier{"A": stA, "B": stB} {
		h := serve.New(st, serve.Options{}).Handler()
		for _, path := range chaosPaths {
			rec := doGet(h, path, nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("canonical GET %s on %s = %d", path, name, rec.Code)
			}
			body := rec.Body.String()
			if prev, dup := canon[body]; dup && prev != name {
				t.Fatalf("stores A and B share a body for %s; torn-store detection would be blind", path)
			}
			canon[body] = name
		}
	}

	// Epoch parity: the server mounts A as epoch 1 and the swap loop
	// alternates B, A, B, ... — odd epochs are A, even are B.
	storeFor := func(epoch string) string {
		n, err := strconv.ParseUint(epoch, 10, 64)
		if err != nil || n == 0 {
			return ""
		}
		if n%2 == 1 {
			return "A"
		}
		return "B"
	}
	// validate returns a description of what is wrong with one response,
	// or "" for a clean one.
	validate := func(path string, rec *httptest.ResponseRecorder) string {
		epoch := rec.Header().Get("X-Store-Epoch")
		switch rec.Code {
		case http.StatusNotModified, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return "" // 304 has no body; 429/503 are admission, not data
		case http.StatusOK:
		default:
			return fmt.Sprintf("GET %s: status %d: %.120s", path, rec.Code, rec.Body.String())
		}
		want := storeFor(epoch)
		if want == "" {
			return fmt.Sprintf("GET %s: 200 with unparseable X-Store-Epoch %q", path, epoch)
		}
		got, known := canon[rec.Body.String()]
		if !known {
			return fmt.Sprintf("GET %s: epoch %s: body matches neither store (torn read?): %.80s", path, epoch, rec.Body.String())
		}
		if got != want {
			return fmt.Sprintf("GET %s: mixed epoch: X-Store-Epoch %s (store %s) served store %s's body", path, epoch, want, got)
		}
		return ""
	}

	srv := serve.New(stA, serve.Options{Obs: reg})
	h := srv.Handler()

	loadDone := make(chan struct{})
	swapsDone := make(chan int)
	go func() {
		swaps := 0
		next := []serve.Querier{stB, stA}
		for {
			select {
			case <-loadDone:
				swapsDone <- swaps
				return
			case <-time.After(3 * time.Millisecond):
				srv.Swap(next[swaps%2])
				swaps++
			}
		}
	}()

	const clients, perClient = 1024, 4
	var (
		mu        sync.Mutex
		status    = map[int]int{}
		epochs    = map[string]struct{}{}
		anomalies []string
		wg        sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hdr := map[string]string{"X-Client-ID": fmt.Sprintf("chaos-%d", c)}
			for i := 0; i < perClient; i++ {
				path := chaosPaths[(c+i/2)%len(chaosPaths)]
				rec := doGet(h, path, hdr)
				if etag := rec.Header().Get("ETag"); i%2 == 0 && etag != "" {
					hdr["If-None-Match"] = etag
				} else {
					delete(hdr, "If-None-Match")
				}
				bad := validate(path, rec)
				mu.Lock()
				status[rec.Code]++
				if epoch := rec.Header().Get("X-Store-Epoch"); epoch != "" {
					epochs[epoch] = struct{}{}
				}
				if bad != "" {
					anomalies = append(anomalies, bad)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(loadDone)
	swaps := <-swapsDone

	requests := 0
	for _, n := range status {
		requests += n
	}
	if requests != clients*perClient {
		t.Errorf("requests = %d, want %d", requests, clients*perClient)
	}
	if len(anomalies) != 0 {
		first := anomalies
		if len(first) > 16 {
			first = first[:16]
		}
		t.Errorf("%d anomalies under chaos (first %d: %v)", len(anomalies), len(first), first)
	}
	if status[http.StatusOK] == 0 {
		t.Error("no 200s at all; the chaos run never exercised the data path")
	}
	if len(epochs) < 2 {
		t.Errorf("epochs observed = %v (%d swaps fired); a live re-seal run must span at least 2", epochs, swaps)
	}
	if swaps == 0 {
		t.Error("swap loop never fired; the run was not a re-seal chaos test")
	}

	// The robustness counters must all be scrapeable on /v1/metricsz.
	body := doGet(h, "/v1/metricsz", nil).Body.String()
	for _, name := range []string{
		"admit_quota_denied_total",
		"admit_shed_total",
		"admit_in_flight",
		"serve_store_swaps_total",
		"serve_store_epoch",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("metricsz missing %s after the chaos run", name)
		}
	}
	if !strings.Contains(body, fmt.Sprintf("serve_store_swaps_total %d", swaps)) {
		t.Errorf("metricsz swap counter disagrees with the %d swaps fired", swaps)
	}
}
