package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/store"
)

// checkRows holds one answer's JSON and NDJSON encodings to
// json.Marshal's bytes, and its errors to json.Marshal's errors.
func checkRows[T any](t *testing.T, items []T, row func(*encoder, *T)) {
	t.Helper()
	a := rows[T]{items, row}
	want, werr := json.Marshal(items)
	got, gerr := encode(a, ctJSON)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%T JSON: error %v, json.Marshal's %v", items, gerr, werr)
	}
	if werr == nil && !bytes.Equal(got, append(want, '\n')) {
		t.Fatalf("%T JSON:\n got %s\nwant %s", items, got, want)
	}
	var wantND []byte
	werr = nil
	for i := range items {
		line, err := json.Marshal(items[i])
		if err != nil {
			werr = err
			break
		}
		wantND = append(append(wantND, line...), '\n')
	}
	got, gerr = encode(a, ctNDJSON)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%T NDJSON: error %v, json.Marshal's %v", items, gerr, werr)
	}
	if werr == nil && !bytes.Equal(got, wantND) {
		t.Fatalf("%T NDJSON:\n got %s\nwant %s", items, got, wantND)
	}
}

// FuzzAppendDTO holds every wire type's appender to json.Marshal: the
// same bytes under JSON and NDJSON, and an error wherever json.Marshal
// errs (NaN, ±Inf). shape picks nil, empty or filled slices, for the
// answer and for the float series inside a row.
func FuzzAppendDTO(f *testing.F) {
	for _, s := range []string{"DE", "", "a<b>&c", `quo"te\`, "tab\tnl\n\x00\x1f", "line\u2028para\u2029", "bad\xff\xfeutf8", "Côte d’Ivoire", "\x7f"} {
		for _, x := range []float64{0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-7, 1e-6, 0.1, 1e20, 1e21, 1e300, -1e-7, math.NaN(), math.Inf(1), math.Inf(-1)} {
			f.Add(s, "AMZN", x, 12.5, -x, 1e-9, len(s)-3, uint8(len(s)))
		}
	}
	f.Fuzz(func(t *testing.T, s1, s2 string, f1, f2, f3, f4 float64, n int, shape uint8) {
		var series [][2]float64
		var diffs []float64
		switch shape >> 2 & 3 {
		case 1:
			series, diffs = [][2]float64{}, []float64{}
		case 2, 3:
			series, diffs = [][2]float64{{f1, f2}, {f3, f4}}, []float64{f4, f3, f2, f1}
		}
		status := []string{"", "appeared", "disappeared", s2}[shape>>4&3]
		lat := []LatencyMapEntry{{s1, s2, f1, f2, f3, s2, n}, {s2, s1, f4, f3, f2, s1, -n}}
		cdf := []CDFEntry{{s1, n, f1, f2, f3, series}, {s2, -n, f4, f3, f2, nil}}
		pd := []PlatformDiffEntry{{s1, diffs, f1, n, -n}, {s2, nil, f2, 0, n}}
		ps := []PeeringShareEntry{{s1, f1, f2, f3, n}, {s2, f4, f3, f2, -n}}
		cp := []store.ChangepointEntry{
			{Country: s1, Provider: s2, NBefore: n, NAfter: -n, MedianBeforeMs: f1, MedianAfterMs: f2, DeltaMs: f3, Shift: f4, Status: status},
			{Country: s2, Provider: s1, MedianBeforeMs: f3 * 0, MedianAfterMs: -f4 * 0, DeltaMs: f1, Shift: f2},
		}
		// shape's low bits: a nil answer, an empty one, one row or two.
		k := int(shape & 3)
		if k == 0 {
			checkRows[LatencyMapEntry](t, nil, (*encoder).latencyMapEntry)
			checkRows[CDFEntry](t, nil, (*encoder).cdfEntry)
			checkRows[PlatformDiffEntry](t, nil, (*encoder).platformDiffEntry)
			checkRows[PeeringShareEntry](t, nil, (*encoder).peeringShareEntry)
			checkRows[store.ChangepointEntry](t, nil, (*encoder).changepointEntry)
			k = 2
		}
		k--
		checkRows(t, lat[:k], (*encoder).latencyMapEntry)
		checkRows(t, cdf[:k], (*encoder).cdfEntry)
		checkRows(t, pd[:k], (*encoder).platformDiffEntry)
		checkRows(t, ps[:k], (*encoder).peeringShareEntry)
		checkRows(t, cp[:k], (*encoder).changepointEntry)
	})
}

// encodeAllocsAnswers are a 1 440-row changepoint answer (240 countries
// × 6 providers, some pairs one-sided) and a six-continent CDF answer at
// the default resolution.
func encodeAllocsAnswers() (changepoint, cdf answer) {
	rng := rand.New(rand.NewSource(1440))
	var cp []store.ChangepointEntry
	for c := 0; c < 240; c++ {
		for _, p := range []string{"AMZN", "GCP", "MSFT", "IBM", "ORCL", "BABA"} {
			e := store.ChangepointEntry{Country: fmt.Sprintf("C%03d", c), Provider: p, NBefore: 1 + rng.Intn(500), NAfter: 1 + rng.Intn(500), Shift: rng.Float64()}
			e.MedianBeforeMs, e.MedianAfterMs = 20+200*rng.Float64(), 20+200*rng.Float64()
			e.DeltaMs = e.MedianAfterMs - e.MedianBeforeMs
			switch rng.Intn(20) {
			case 0:
				e.Status, e.NBefore, e.MedianBeforeMs, e.DeltaMs, e.Shift = "appeared", 0, 0, 0, 0.5
			case 1:
				e.Status, e.NAfter, e.MedianAfterMs, e.DeltaMs, e.Shift = "disappeared", 0, 0, 0, 0.5
			}
			cp = append(cp, e)
		}
	}
	var cdfs []CDFEntry
	for _, cont := range knownContinents {
		e := CDFEntry{Continent: cont, N: 1000 + rng.Intn(9000), UnderMTP: rng.Float64(), UnderHPL: rng.Float64(), UnderHRT: rng.Float64()}
		for i := 0; i < defaultCDFPoints; i++ {
			e.Series = append(e.Series, [2]float64{5 + 300*rng.Float64(), float64(i+1) / defaultCDFPoints})
		}
		cdfs = append(cdfs, e)
	}
	return rows[store.ChangepointEntry]{cp, (*encoder).changepointEntry}, rows[CDFEntry]{cdfs, (*encoder).cdfEntry}
}

// TestEncodeAllocs pins what encoding a figure answer allocates: the
// body the cache keeps and nothing else, the scratch buffer coming back
// from the pool. A per-row json.Marshal, as the NDJSON path once did,
// costs two allocations a row.
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool keeps nothing reliably under the race detector")
	}
	changepoint, cdf := encodeAllocsAnswers()
	for _, c := range []struct {
		name string
		a    answer
		ct   string
		max  float64
	}{
		{"changepoint/json", changepoint, ctJSON, 1},
		{"changepoint/ndjson", changepoint, ctNDJSON, 1},
		{"cdf/json", cdf, ctJSON, 1},
		{"cdf/ndjson", cdf, ctNDJSON, 1},
	} {
		if _, err := encode(c.a, c.ct); err != nil { // warm the pool
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := encode(c.a, c.ct); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("%s: %v allocations per encode, want at most %v", c.name, got, c.max)
		}
	}
}
