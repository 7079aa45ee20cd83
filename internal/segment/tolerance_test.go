package segment

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/store"
)

// Pinned per-figure tolerances for the sketch path vs the exact path.
// The fixture RTTs span roughly 15..120 ms; group sizes run from a few
// hundred (country×provider×partition) to tens of thousands
// (continent), so the δ=200 digest holds rank error ~1% mid-quantile.
const (
	epsLatencyMedianRel = 0.01 // Figure 3 medians and their CI bounds: ≤1% relative
	epsCDFFraction      = 0.02 // Figure 4 threshold fractions: ≤0.02 absolute
	epsCDFCurve         = 0.03 // Figure 4 curve, sampled: ≤0.03 absolute probability
	epsDiffMs           = 3.0  // Figure 5 per-centile diffs: ≤3 ms absolute
	epsChangepointRel   = 0.01 // changepoint medians: ≤1% relative
	epsShiftAbs         = 0.05 // changepoint Mann-Whitney AUC: ≤0.05 absolute
)

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestSketchWithinToleranceOfExact compares every figure endpoint
// between the sketch reader and the exact reader across shard counts
// 1/4/16 × partition counts 1/3/4/5/13/16 — powers of two and not, so
// the partition tree is even and uneven — on the unwindowed query and a
// half-campaign window, and at 4 shards on every contiguous partition
// range, each answered from its own cover of tree nodes. (The shard
// count only orders the merges inside a leaf, the range only picks the
// cover, so the full cross product would add time and no case. Windows
// that cut a partition fall back to the exact path by construction, so
// there is nothing to compare there.)
func TestSketchWithinToleranceOfExact(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		for _, shape := range []struct{ parts, span int }{{1, 16}, {4, 4}, {16, 1}, {3, 5}, {5, 3}, {13, 2}} {
			parts, cycles := shape.parts, shape.parts*shape.span
			// A one-partition window must still hold 36 rows per continent:
			// under 25 the half step between the digest's interpolated CDF
			// and the exact staircase, 1/2n, alone exceeds epsCDFFraction.
			st := buildStore(t, shards, parts, cycles, max(8, 12/shape.span))
			dir := t.TempDir()
			if err := Write(dir, st); err != nil {
				t.Fatal(err)
			}
			exact, err := Open(dir, Options{Exact: true})
			if err != nil {
				t.Fatal(err)
			}
			approx, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			windows := []store.Window{{}}
			if shards == 4 {
				windows = append(windows, everyPartitionRange(parts, shape.span)...)
			} else if parts > 1 {
				windows = append(windows, partitionRange(0, parts/2, parts, shape.span))
			}
			for _, w := range windows {
				if _, _, ok := approx.alignedRun(w); !ok {
					t.Fatalf("shards=%d parts=%d: partition range %+v is not aligned", shards, parts, w)
				}
				compareFigures(t, shards, parts, w, exact, approx)
			}
			// Every partition boundary splits the axis into two aligned
			// halves (parts=1 has none: cycle 8 falls back, trivially equal).
			compareChangepoint(t, shards, parts, 8, exact, approx)
			for at := shape.span; at < cycles; at += shape.span {
				compareChangepoint(t, shards, parts, at, exact, approx)
			}
			exact.Close()
			approx.Close()
		}
	}
}

func compareFigures(t *testing.T, shards, parts int, w store.Window, exact, approx *Reader) {
	t.Helper()
	// Figure 3: latency map.
	em := exact.LatencyMapWindow(5, w)
	am := approx.LatencyMapWindow(5, w)
	if len(em) != len(am) {
		t.Fatalf("shards=%d parts=%d w=%+v: latency map has %d sketch entries, %d exact", shards, parts, w, len(am), len(em))
	}
	for i := range em {
		if em[i].Country != am[i].Country || em[i].Samples != am[i].Samples {
			t.Fatalf("shards=%d parts=%d w=%+v: latency map row %d identity mismatch", shards, parts, w, i)
		}
		for name, pair := range map[string][2]float64{
			"median_ms":  {am[i].MedianMs, em[i].MedianMs},
			"ci_low_ms":  {am[i].CILowMs, em[i].CILowMs},
			"ci_high_ms": {am[i].CIHighMs, em[i].CIHighMs},
		} {
			if r := relErr(pair[0], pair[1]); r > epsLatencyMedianRel {
				t.Errorf("shards=%d parts=%d w=%+v: %s %s rel err %.4f > %.4f",
					shards, parts, w, em[i].Country, name, r, epsLatencyMedianRel)
			}
		}
	}
	// Figure 4: continent CDFs, both platforms.
	for _, platform := range []string{"speedchecker", "atlas"} {
		ec := exact.ContinentCDFsWindow(platform, w)
		ac := approx.ContinentCDFsWindow(platform, w)
		if len(ec) != len(ac) {
			t.Fatalf("shards=%d parts=%d w=%+v: %s CDF continent count %d vs %d", shards, parts, w, platform, len(ac), len(ec))
		}
		for i := range ec {
			if ec[i].Continent != ac[i].Continent || ec[i].N != ac[i].N {
				t.Fatalf("shards=%d parts=%d w=%+v: %s CDF row %d identity mismatch", shards, parts, w, platform, i)
			}
			for name, pair := range map[string][2]float64{
				"UnderMTP": {ac[i].UnderMTP, ec[i].UnderMTP},
				"UnderHPL": {ac[i].UnderHPL, ec[i].UnderHPL},
				"UnderHRT": {ac[i].UnderHRT, ec[i].UnderHRT},
			} {
				if d := math.Abs(pair[0] - pair[1]); d > epsCDFFraction {
					t.Errorf("shards=%d parts=%d w=%+v: %s %v %s abs err %.4f > %.4f",
						shards, parts, w, platform, ec[i].Continent, name, d, epsCDFFraction)
				}
			}
			// Sample the curve at the exact CDF's own quantiles.
			for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
				x := ec[i].CDF.InverseAt(q)
				if d := math.Abs(ac[i].CDF.At(x) - ec[i].CDF.At(x)); d > epsCDFCurve {
					t.Errorf("shards=%d parts=%d w=%+v: %s %v CDF(%.1fms) abs err %.4f > %.4f",
						shards, parts, w, platform, ec[i].Continent, x, d, epsCDFCurve)
				}
			}
		}
	}
	// Figure 5: platform diff centiles.
	ed := exact.PlatformDiffWindow(w)
	ad := approx.PlatformDiffWindow(w)
	if len(ed) != len(ad) {
		t.Fatalf("shards=%d parts=%d w=%+v: platform diff continent count %d vs %d", shards, parts, w, len(ad), len(ed))
	}
	for i := range ed {
		if ed[i].Continent != ad[i].Continent || ed[i].NSC != ad[i].NSC || ed[i].NAtlas != ad[i].NAtlas {
			t.Fatalf("shards=%d parts=%d w=%+v: platform diff row %d identity mismatch", shards, parts, w, i)
		}
		for c := range ed[i].Diffs {
			if d := math.Abs(ad[i].Diffs[c] - ed[i].Diffs[c]); d > epsDiffMs {
				t.Errorf("shards=%d parts=%d w=%+v: %v centile %d diff abs err %.2fms > %.1fms",
					shards, parts, w, ed[i].Continent, c+1, d, epsDiffMs)
			}
		}
	}
	// Figure 10: peering shares answer exactly in both modes.
	if got, want := approx.PeeringSharesWindow(w), exact.PeeringSharesWindow(w); len(got) != len(want) {
		t.Fatalf("shards=%d parts=%d w=%+v: peering shares differ", shards, parts, w)
	}
}

func compareChangepoint(t *testing.T, shards, parts, at int, exact, approx *Reader) {
	t.Helper()
	ec := exact.Changepoint("speedchecker", at, 0)
	ac := approx.Changepoint("speedchecker", at, 0)
	if len(ec) != len(ac) {
		t.Fatalf("shards=%d parts=%d: changepoint entry count %d vs %d", shards, parts, len(ac), len(ec))
	}
	byPair := map[string]store.ChangepointEntry{}
	for _, e := range ec {
		byPair[e.Country+"|"+e.Provider] = e
	}
	for _, a := range ac {
		e, ok := byPair[a.Country+"|"+a.Provider]
		if !ok {
			t.Fatalf("shards=%d parts=%d: changepoint pair %s/%s missing from exact", shards, parts, a.Country, a.Provider)
		}
		if a.NBefore != e.NBefore || a.NAfter != e.NAfter || a.Status != e.Status {
			t.Fatalf("shards=%d parts=%d: changepoint %s/%s identity mismatch", shards, parts, a.Country, a.Provider)
		}
		if e.NBefore > 0 {
			if r := relErr(a.MedianBeforeMs, e.MedianBeforeMs); r > epsChangepointRel {
				t.Errorf("shards=%d parts=%d: %s/%s median-before rel err %.4f", shards, parts, a.Country, a.Provider, r)
			}
		}
		if e.NAfter > 0 {
			if r := relErr(a.MedianAfterMs, e.MedianAfterMs); r > epsChangepointRel {
				t.Errorf("shards=%d parts=%d: %s/%s median-after rel err %.4f", shards, parts, a.Country, a.Provider, r)
			}
		}
		if d := math.Abs(a.Shift - e.Shift); d > epsShiftAbs {
			t.Errorf("shards=%d parts=%d: %s/%s shift abs err %.4f > %.4f", shards, parts, a.Country, a.Provider, d, epsShiftAbs)
		}
	}
}

// TestGroupQuantilesSketch pins the single-group point query: counts
// are exact, quantiles within the digest tolerance of the exact merged
// vector, and unaligned windows refuse the sketch path.
func TestGroupQuantilesSketch(t *testing.T) {
	st := buildStore(t, 4, 4, 16, 8)
	dir := t.TempDir()
	if err := Write(dir, st); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	qs, n, ok := r.GroupQuantiles(store.DimCountry, "speedchecker", "DE", store.Window{}, 0.5, 0.95)
	if !ok {
		t.Fatal("full-window group query refused the sketch path")
	}
	de := st.CountrySamples("speedchecker")["DE"]
	exactVals, err := stats.QuantilesSorted(de, 0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	exactN := len(de)
	if int(n) != exactN {
		t.Fatalf("sketch count %d, exact %d", n, exactN)
	}
	for i := range qs {
		if r := relErr(qs[i], exactVals[i]); r > 0.02 {
			t.Errorf("quantile %d rel err %.4f", i, r)
		}
	}
	if _, _, ok := r.GroupQuantiles(store.DimCountry, "speedchecker", "DE", store.Window{From: 1, To: 3}, 0.5); ok {
		t.Error("partition-cutting window did not refuse the sketch path")
	}
}
