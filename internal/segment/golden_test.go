package segment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// goldenDir holds segment files written by the code that introduced
// this FormatVersion. The directory name carries the version, so a
// change of layout cannot pass by regenerating files in place: it has
// to bump FormatVersion and commit a new directory beside this one.
var goldenDir = filepath.Join("testdata", fmt.Sprintf("golden-v%d", FormatVersion))

// goldenStore is the frozen fixture behind goldenDir. Every value is a
// closed form of its loop indexes — no RNG — so the fixture cannot drift
// with the toolchain. One group carries a negative and a zero RTT, which
// forces the raw (non-delta) encoding of both its column and its sketch.
func goldenStore(tb testing.TB) *store.Store {
	tb.Helper()
	b := store.NewBuilder(store.Options{Shards: 2, Partitions: 2, Cycles: 4})
	n := 0
	for ci, code := range []string{"DE", "US", "BR"} {
		meta, ok := geo.CountryByCode(code)
		if !ok {
			tb.Fatalf("unknown fixture country %s", code)
		}
		for pi, platform := range []string{"speedchecker", "atlas"} {
			for _, prov := range []string{"AMZN", "GCP"} {
				for cyc := 0; cyc < 4; cyc++ {
					for k := 0; k < 3; k++ {
						n++
						b.Add(store.Sample{
							Platform: platform, Country: code, Continent: meta.Continent, Provider: prov,
							RTTms: float64(10*(ci+1)-2*pi) + float64(n*7919%1000)/37,
							Cycle: cyc,
						})
					}
				}
			}
		}
	}
	for i, rtt := range []float64{-1.5, 0, 2.25} {
		b.Add(store.Sample{Platform: "atlas", Country: "JP", Continent: geo.AS, Provider: "MSFT", RTTms: rtt, Cycle: i})
	}
	for cyc := 0; cyc < 4; cyc++ {
		b.AddPeeringCountsAt(cyc, map[string]map[pipeline.Class]int{
			"AMZN": {pipeline.ClassDirect: 5 + cyc, pipeline.ClassDirectIXP: 2},
			"GCP":  {pipeline.ClassPrivate: 3, pipeline.ClassPublic: 1 + cyc%2},
		})
	}
	return b.Seal()
}

// TestGoldenWriterReproducesBytes pins the on-disk layout: today's
// writer must emit the committed files byte for byte.
func TestGoldenWriterReproducesBytes(t *testing.T) {
	dir := t.TempDir()
	if err := Write(dir, goldenStore(t)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{MetaFile, ShardFile(0), ShardFile(1)} {
		want, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: writer output (%d bytes) differs from the golden file (%d bytes); a layout change needs a FormatVersion bump",
				name, len(got), len(want))
		}
	}
}

// TestGoldenReaderParses pins the other direction: today's reader must
// validate the committed files and answer from them exactly as the
// in-memory fixture does.
func TestGoldenReaderParses(t *testing.T) {
	for _, name := range []string{MetaFile, ShardFile(0), ShardFile(1)} {
		raw, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		check := CheckShard
		if name == MetaFile {
			check = CheckMeta
		}
		if err := check(raw); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	st := goldenStore(t)
	for _, exact := range []bool{true, false} {
		r, err := Open(goldenDir, Options{Exact: exact})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := r.Summary(), st.Summary(); !reflect.DeepEqual(got, want) {
			t.Errorf("exact=%v Summary:\n got %+v\nwant %+v", exact, got, want)
		}
		if got, want := r.PeeringShares(), st.PeeringShares(); !reflect.DeepEqual(got, want) {
			t.Errorf("exact=%v PeeringShares diverges", exact)
		}
		// The fixture's groups are small enough that every observation
		// stays a singleton centroid, so counts agree in sketch mode too.
		got, want := r.LatencyMap(1), st.LatencyMap(1)
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("exact=%v LatencyMap: %d entries, want %d", exact, len(got), len(want))
		}
		for i := range got {
			if got[i].Country != want[i].Country || got[i].Samples != want[i].Samples {
				t.Errorf("exact=%v LatencyMap[%d] = %s/%d, want %s/%d", exact, i,
					got[i].Country, got[i].Samples, want[i].Country, want[i].Samples)
			}
		}
		if exact {
			if !reflect.DeepEqual(got, want) {
				t.Error("exact LatencyMap diverges from the in-memory store")
			}
			for _, w := range []store.Window{{}, {From: 1, To: 3}} {
				if got, want := r.ContinentCDFsWindow("atlas", w), st.ContinentCDFsWindow("atlas", w); !reflect.DeepEqual(got, want) {
					t.Errorf("w=%+v: exact ContinentCDFs(atlas) diverges", w)
				}
			}
		}
		r.Close()
	}
}
