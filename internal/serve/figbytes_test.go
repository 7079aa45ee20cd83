package serve_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/pipeline"
	"repro/internal/segment"
	"repro/internal/serve"
	"repro/internal/store"
)

// figureBytesStore is a sealed store large enough that every
// continent's and most countries' t-digests compress (hundreds of rows
// per group), cut into four 4-cycle partitions so the sketch path
// answers aligned windows and the changepoint.
func figureBytesStore(t *testing.T) *store.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	b := store.NewBuilder(store.Options{Shards: 4, Partitions: 4, Cycles: 16})
	countries := []struct {
		code string
		base float64
	}{
		{"DE", 18}, {"GB", 24}, {"US", 35}, {"BR", 62}, {"JP", 41}, {"ZA", 88},
	}
	for _, c := range countries {
		meta, ok := geo.CountryByCode(c.code)
		if !ok {
			t.Fatalf("unknown fixture country %s", c.code)
		}
		for _, platform := range []string{"speedchecker", "atlas"} {
			for pi, prov := range []string{"AMZN", "GCP", "MSFT"} {
				for cyc := 0; cyc < 16; cyc++ {
					// MSFT regresses from cycle 8 on, so the changepoint
					// ranking has a real shift to find.
					shift := 0.0
					if prov == "MSFT" && cyc >= 8 {
						shift = 9
					}
					for k := 0; k < 6+pi; k++ {
						b.Add(store.Sample{
							Platform: platform, Country: c.code, Continent: meta.Continent,
							Provider: prov,
							RTTms:    c.base + shift + 25*rng.Float64()*rng.Float64(),
							Cycle:    cyc,
						})
					}
				}
			}
		}
	}
	for cyc := 0; cyc < 16; cyc++ {
		b.AddPeeringCountsAt(cyc, map[string]map[pipeline.Class]int{
			"AMZN": {pipeline.ClassDirect: 5 + cyc, pipeline.ClassDirectIXP: 2},
			"GCP":  {pipeline.ClassPublic: 3, pipeline.ClassDirectIXP: 4 + cyc%3},
		})
	}
	return b.Seal()
}

// figureBytesWant pins the sha256 of each figure body, per path: the
// memory store and the exact segment reader must both produce the
// first hash, the sketch reader the second. Latency-map bodies are
// hashed with ci_low_ms / ci_high_ms zeroed, so the pin covers the
// medians, bands and counts and leaves the interval to its own tests.
// Windows that cut a partition fall back to the exact path, so there
// the two hashes agree. An empty second hash means the sketch body
// must equal the exact one: every changepoint side here holds at most
// 64 observations, singleton digests on which the shift walk and the
// median are exact.
var figureBytesWant = map[string][2]string{
	"/v1/latency-map?min=5": {
		"c760a4c062fe473f199790f407491ca14e90d16672592ae1ec7b9a64ed3b847f",
		"0d59fabe81de3fa9d1653aea85a3b2de8500b31fca15e5e025d3e8c5d1a7e548"},
	"/v1/latency-map?min=5&from=4&to=12": {
		"4d4213987a0282d424bb5b8ff8d7b00d47e22c7fabf39de5e67e17bcafed4ec4",
		"4d4213987a0282d424bb5b8ff8d7b00d47e22c7fabf39de5e67e17bcafed4ec4"},
	"/v1/latency-map?min=5&from=3&to=11": {
		"8ce138b1d86a0feaf93e94121f5b23220001b908c19dfb1b82fa07b2946f996c",
		"8ce138b1d86a0feaf93e94121f5b23220001b908c19dfb1b82fa07b2946f996c"},
	"/v1/cdf?platform=speedchecker&points=64": {
		"6322b4df0026da6929c23acfeef3823073f08825a24440ddd07ea2933132fd64",
		"51e2da1578818e634bb14d4fbd0647c7af7bde70bbec9f652b56a2b87631008c"},
	"/v1/cdf?platform=atlas&points=200&from=8": {
		"2c27e575c06906f2395e1ee58b741f6a2f1e5c14c62c7003c1f4026f3a335517",
		"b01abc9317499a85d0a14f342b77a548421b479edf4ce126f17ac3d6ed83795c"},
	"/v1/cdf?platform=speedchecker&from=2&to=9": {
		"b136d13b07761f92c3c3cc38578fcb104aeadeb9f41d5888596184dc341acb87",
		"b136d13b07761f92c3c3cc38578fcb104aeadeb9f41d5888596184dc341acb87"},
	"/v1/platform-diff": {
		"9ad42751da691e8855c403a0c872a67386459c0659d9afbff67f1ba05072ee79",
		"5e100bc7a9f9b312fb614be77a9348d02f943845d542798a01bf419c36cf5082"},
	"/v1/platform-diff?to=8": {
		"71b9b23738d5eed90b5c8976855b875074fd9eac3b2d08fd575dc9c19a78d2e3",
		"174d112c9f8828aeca385e01c8ee2306b7b3676f378b5d8643b7bce320c25aac"},
	"/v1/platform-diff?from=5": {
		"997b4472878ded2f0ec67f224becc776a68fa0bed9fdab2f965c876fafad6cce",
		"997b4472878ded2f0ec67f224becc776a68fa0bed9fdab2f965c876fafad6cce"},
	"/v1/changepoint?platform=speedchecker&at=8": {
		"e3c737a678916a13f79d6fbf1943f1cae07741868bde2fef01335b488266b2ae", ""},
	"/v1/changepoint?platform=atlas&at=4&width=4": {
		"a9e7df691ab58447783869f9d4d638d542113edb13abdcdf584f6c6881fcada0", ""},
	"/v1/changepoint?platform=speedchecker&at=6": {
		"6db8a9e57baac61d1cc8536fce8df235ca250d0bc7aa1a812530150ebb74ce7c", ""},
}

// TestFigureBytesPinned pins the figure bodies bit for bit on all three
// backends, sketch answers included: a kernel rewrite that moves one
// float in one body fails here, not just outside a tolerance.
func TestFigureBytesPinned(t *testing.T) {
	st := figureBytesStore(t)
	dir := t.TempDir()
	if err := segment.Write(dir, st); err != nil {
		t.Fatal(err)
	}
	exact, err := segment.Open(dir, segment.Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer exact.Close()
	sketched, err := segment.Open(dir, segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sketched.Close()

	backends := []struct {
		name string
		q    serve.Querier
		col  int
	}{{"memory", st, 0}, {"segment-exact", exact, 0}, {"segment-sketch", sketched, 1}}
	got := map[string][2]string{}
	for _, b := range backends {
		h := serve.New(b.q, serve.Options{}).Handler()
		for path := range figureBytesWant {
			rec := doGet(h, path, nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: GET %s = %d", b.name, path, rec.Code)
			}
			body := rec.Body.Bytes()
			if strings.HasPrefix(path, "/v1/latency-map") {
				body = zeroCI(t, body)
			}
			sum := sha256.Sum256(body)
			hash := hex.EncodeToString(sum[:])
			g := got[path]
			if b.name == "segment-exact" && g[0] != hash {
				t.Errorf("%s: segment-exact body differs from the memory store's", path)
			}
			g[b.col] = hash
			got[path] = g
		}
	}
	for path, want := range figureBytesWant {
		if want[1] == "" {
			want[1] = want[0]
		}
		if got[path] != want {
			t.Errorf("%s: sha256 (exact, sketch) = %q, want %q", path, got[path], want)
		}
	}
}

// zeroCI re-encodes a latency-map body with its interval fields zeroed.
func zeroCI(t *testing.T, body []byte) []byte {
	t.Helper()
	var rows []serve.LatencyMapEntry
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rows[i].CILowMs, rows[i].CIHighMs = 0, 0
	}
	out, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
