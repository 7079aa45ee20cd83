package store

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/asn"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/lastmile"
	"repro/internal/netaddr"
	"repro/internal/pipeline"
	"repro/internal/stats"
)

// fixtureDataset builds a small deterministic campaign: four countries
// on three continents, two platforms, regions from three providers,
// with per-country latency floors so the nearest-DC choice is stable.
func fixtureDataset(t testing.TB) (*dataset.Store, []pipeline.Processed) {
	t.Helper()
	ip, err := netaddr.ParseIP("192.0.2.1")
	if err != nil {
		t.Fatal(err)
	}
	type region struct {
		id, prov, country string
		cont              geo.Continent
		offset            float64 // extra RTT vs the continent's closest region
	}
	regions := []region{
		{"eu-frankfurt", "AMZN", "DE", geo.EU, 0},
		{"eu-london", "GCP", "GB", geo.EU, 12},
		{"na-virginia", "MSFT", "US", geo.NA, 0},
		{"sa-saopaulo", "AMZN", "BR", geo.SA, 0},
	}
	countries := []struct {
		code string
		cont geo.Continent
		base float64
	}{
		{"DE", geo.EU, 18}, {"GB", geo.EU, 24}, {"US", geo.NA, 35}, {"BR", geo.SA, 62},
	}
	rng := rand.New(rand.NewSource(7))
	ds := &dataset.Store{}
	for _, c := range countries {
		for _, platform := range []string{"speedchecker", "atlas"} {
			for p := 0; p < 6; p++ {
				vp := dataset.VantagePoint{
					ProbeID:  platform + "-" + c.code + "-" + string(rune('a'+p)),
					Platform: platform, Country: c.code, Continent: c.cont,
					ISP: asn.Number(64500 + p), Access: lastmile.WiFi,
				}
				for _, rg := range regions {
					if rg.cont != c.cont {
						continue
					}
					target := dataset.Target{
						Region: rg.id, Provider: rg.prov, Country: rg.country,
						Continent: rg.cont, IP: ip,
					}
					for k := 0; k < 15; k++ {
						ds.AddPing(dataset.PingRecord{
							VP: vp, Target: target, Protocol: dataset.TCP,
							RTTms: c.base + rg.offset + rng.Float64()*6,
							Cycle: k,
						})
					}
				}
			}
		}
	}
	var processed []pipeline.Processed
	classes := []pipeline.Class{
		pipeline.ClassDirect, pipeline.ClassDirectIXP,
		pipeline.ClassPrivate, pipeline.ClassPublic,
	}
	for i := 0; i < 120; i++ {
		rec := &dataset.TracerouteRecord{
			VP: dataset.VantagePoint{
				ProbeID: "sc-trace", Platform: "speedchecker",
				Country: "DE", Continent: geo.EU, Access: lastmile.WiFi,
			},
			Target: dataset.Target{Provider: []string{"AMZN", "GCP", "MSFT"}[i%3]},
		}
		processed = append(processed, pipeline.Processed{
			Record: rec, Class: classes[i%len(classes)], EndToEndRTTms: 30,
		})
	}
	return ds, processed
}

func fixtureStore(t testing.TB, shards int) (*Store, *dataset.Store, []pipeline.Processed) {
	t.Helper()
	ds, processed := fixtureDataset(t)
	return FromDataset(ds, processed, Options{Shards: shards}), ds, processed
}

// The store must answer every figure query identically to the one-shot
// batch analysis pass — the acceptance bar for `cloudy serve`.
func TestStoreMatchesBatchAnalysis(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		st, ds, processed := fixtureStore(t, shards)

		if got, want := st.LatencyMap(10), analysis.CollectStore(ds).LatencyMap(10); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: LatencyMap diverges from batch analysis:\ngot  %+v\nwant %+v", shards, got, want)
		}
		if got, want := st.ContinentCDFs("speedchecker"), analysis.CollectStore(ds).ContinentDistributions("speedchecker"); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: ContinentCDFs diverges from batch analysis", shards)
		}
		if got, want := st.PlatformDiff(), analysis.CollectStore(ds).PlatformComparison(); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: PlatformDiff diverges from batch analysis", shards)
		}
		if got, want := st.PeeringShares(), analysis.Interconnections(processed); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: PeeringShares diverges from batch analysis:\ngot  %+v\nwant %+v", shards, got, want)
		}
	}
}

func TestCountryQuantilesMatchStats(t *testing.T) {
	st, ds, _ := fixtureStore(t, 8)
	byCountry := analysis.CollectStore(ds).Nearest("speedchecker").ByCountry()
	merged := st.CountrySamples("speedchecker")
	for country, xs := range byCountry {
		got, err := stats.QuantilesSorted(merged[country], 0.25, 0.5, 0.9)
		if err != nil {
			t.Fatalf("%s: %v", country, err)
		}
		if n := len(merged[country]); n != len(xs) {
			t.Errorf("%s: n = %d, want %d", country, n, len(xs))
		}
		want, err := stats.Quantiles(xs, 0.25, 0.5, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: quantiles = %v, want %v", country, got, want)
		}
	}
	if _, err := stats.QuantilesSorted(merged["ZZ"], 0.5); err == nil {
		t.Error("unknown country should return an error")
	}
}

func TestSummaryAndCountries(t *testing.T) {
	st, ds, _ := fixtureStore(t, 8)
	sum := st.Summary()
	wantRows := 0
	for _, platform := range []string{"speedchecker", "atlas"} {
		for _, xs := range analysis.CollectStore(ds).Nearest(platform).Samples {
			wantRows += len(xs)
		}
	}
	if sum.Rows != wantRows {
		t.Errorf("Rows = %d, want %d", sum.Rows, wantRows)
	}
	if sum.Shards != 8 {
		t.Errorf("Shards = %d, want 8", sum.Shards)
	}
	if sum.Countries != 4 {
		t.Errorf("Countries = %d, want 4", sum.Countries)
	}
	if sum.RTTMinMs <= 0 || sum.RTTMaxMs < sum.RTTMinMs || sum.RTTMeanMs <= 0 {
		t.Errorf("implausible RTT summary: %+v", sum)
	}
	want := []string{"BR", "DE", "GB", "US"}
	if got := st.Countries("speedchecker"); !reflect.DeepEqual(got, want) {
		t.Errorf("Countries = %v, want %v", got, want)
	}
}

func TestMergeSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(40)
		// A coarse grid makes equal values (zero among them) cross runs.
		grid := 1 + rng.Intn(8)
		var vecs [][]float64
		var all []float64
		for i := 0; i < k; i++ {
			n := rng.Intn(20)
			if rng.Intn(4) == 0 {
				n = 0
			}
			xs := make([]float64, n)
			for j := range xs {
				xs[j] = float64(rng.Intn(grid)) * 0.5
			}
			sort.Float64s(xs)
			vecs = append(vecs, xs)
			all = append(all, xs...)
		}
		headers := append([][]float64(nil), vecs...)
		sort.Float64s(all)
		got := MergeSorted(vecs)
		for i := range vecs {
			if len(vecs[i]) != len(headers[i]) || cap(vecs[i]) != cap(headers[i]) ||
				(len(vecs[i]) > 0 && &vecs[i][0] != &headers[i][0]) {
				t.Fatalf("trial %d: MergeSorted rewrote the caller's run %d", trial, i)
			}
		}
		if len(got) != len(all) {
			t.Fatalf("trial %d: merged %d values, want %d", trial, len(got), len(all))
		}
		for i := range all {
			if math.Float64bits(got[i]) != math.Float64bits(all[i]) {
				t.Fatalf("trial %d: merged[%d] = %v, want %v", trial, i, got[i], all[i])
			}
		}
	}

	one := []float64{1, 2, 3}
	if got := MergeSorted([][]float64{nil, one, {}}); len(got) != len(one) || &got[0] != &one[0] {
		t.Error("a single non-empty run should come back aliased")
	}
}

// The sealed store must serve concurrent readers without coordination.
func TestConcurrentQueries(t *testing.T) {
	st, _, _ := fixtureStore(t, 4)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			st.LatencyMap(10)
			st.ContinentCDFs("atlas")
			st.PlatformDiff()
			st.PeeringShares()
			st.Changepoint("speedchecker", 1, 0)
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}
