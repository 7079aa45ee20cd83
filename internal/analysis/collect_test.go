package analysis

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/stats"
)

// TestCollectMatchesBatch checks the Figure 3–5 kernels a CollectStore
// pass feeds against plain batch arithmetic over the same nearest-DC
// vectors: a copy-and-sort median, the order statistics at
// stats.MedianCIRank, counted threshold shares and per-centile quantile
// differences, all bit for bit.
func TestCollectMatchesBatch(t *testing.T) {
	f := testData(t)
	agg := CollectStore(f.store)
	sorted := func(xs []float64) []float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s
	}
	quantile := func(xs []float64, q float64) float64 {
		v, err := stats.Quantile(xs, q)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	share := func(xs []float64, limit float64) float64 {
		k := 0
		for _, x := range xs {
			if x <= limit {
				k++
			}
		}
		return float64(k) / float64(len(xs))
	}

	const minSamples = 10
	byCountry := agg.Nearest("speedchecker").ByCountry()
	var want []CountryLatency
	for cc, xs := range byCountry {
		c, ok := geo.CountryByCode(cc)
		if !ok || len(xs) < minSamples {
			continue
		}
		s := sorted(xs)
		j := stats.MedianCIRank(len(s))
		med := quantile(xs, 0.5)
		want = append(want, CountryLatency{
			Country: cc, Continent: c.Continent, MedianMs: med,
			CILowMs: s[j-1], CIHighMs: s[len(s)-j],
			Band: BandOf(med), Samples: len(s),
		})
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Country < want[j].Country })
	if got := agg.LatencyMap(minSamples); len(want) == 0 || !reflect.DeepEqual(want, got) {
		t.Fatalf("LatencyMap diverges from the batch medians and intervals (%d batch rows, %d collected)", len(want), len(got))
	}

	for _, platform := range []string{"speedchecker", "atlas"} {
		byCont := agg.Nearest(platform).ByContinent()
		got := agg.ContinentDistributions(platform)
		if len(got) != len(byCont) {
			t.Fatalf("%s: %d continent curves, want %d", platform, len(got), len(byCont))
		}
		for _, d := range got {
			xs := byCont[d.Continent]
			if d.N != len(xs) || d.CDF.N() != len(xs) {
				t.Fatalf("%s %v: N = %d (curve %d), want %d", platform, d.Continent, d.N, d.CDF.N(), len(xs))
			}
			if d.UnderMTP != share(xs, MTPms) || d.UnderHPL != share(xs, HPLms) || d.UnderHRT != share(xs, HRTms) {
				t.Fatalf("%s %v: threshold shares diverge from counting", platform, d.Continent)
			}
		}
	}

	sc, at := agg.Nearest("speedchecker").ByContinent(), agg.Nearest("atlas").ByContinent()
	diffs := agg.PlatformComparison()
	if len(diffs) == 0 {
		t.Fatal("no continent sampled by both platforms")
	}
	for _, d := range diffs {
		xs, ys := sc[d.Continent], at[d.Continent]
		if d.NSC != len(xs) || d.NAtlas != len(ys) || len(d.Diffs) != 99 {
			t.Fatalf("%v: sizes (%d, %d, %d diffs) diverge", d.Continent, d.NSC, d.NAtlas, len(d.Diffs))
		}
		atlasFaster := 0
		for i, diff := range d.Diffs {
			q := float64(i+1) / 100
			if want := quantile(xs, q) - quantile(ys, q); diff != want {
				t.Fatalf("%v: centile %d diff = %v, want %v", d.Continent, i+1, diff, want)
			}
			if diff > 0 {
				atlasFaster++
			}
		}
		if want := float64(atlasFaster) / 99; d.AtlasFasterShare != want {
			t.Fatalf("%v: AtlasFasterShare = %v, want %v", d.Continent, d.AtlasFasterShare, want)
		}
	}
}
