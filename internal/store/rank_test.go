package store

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// rankChangepointSortSlice is the sort.Slice comparator rankChangepoint
// replaced, kept as the reference order.
func rankChangepointSortSlice(out []ChangepointEntry) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if (a.Status == "") != (b.Status == "") {
			return a.Status == "" // scored pairs first
		}
		if a.Status != b.Status {
			return a.Status < b.Status // "appeared" before "disappeared"
		}
		if a.Shift != b.Shift {
			return a.Shift > b.Shift
		}
		if a.DeltaMs != b.DeltaMs {
			return a.DeltaMs > b.DeltaMs
		}
		if a.Country != b.Country {
			return a.Country < b.Country
		}
		return a.Provider < b.Provider
	})
}

// TestRankChangepointMatchesSortSlice ranks random answers both ways and
// requires the same order. Shifts and deltas come from a handful of
// values (±0 among the deltas), so ties fall through to the next key,
// and scored, appeared and disappeared pairs are mixed.
func TestRankChangepointMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	shifts := []float64{0, 0.25, 0.5, 0.5, 0.75, 1}
	deltas := []float64{-3.5, math.Copysign(0, -1), 0, 2.25, 2.25, 40}
	statuses := []string{"", "", "", "appeared", "disappeared"}
	countries := []string{"DE", "GB", "US", "BR", "JP", "ZA", "KE"}
	providers := []string{"AMZN", "GCP", "MSFT", "IBM", "ORCL"}
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(len(countries) * len(providers))
		seen := map[string]bool{}
		var entries []ChangepointEntry
		for len(entries) < n {
			c, p := countries[rng.Intn(len(countries))], providers[rng.Intn(len(providers))]
			if seen[c+"|"+p] {
				continue
			}
			seen[c+"|"+p] = true
			e := ChangepointEntry{Country: c, Provider: p, Status: statuses[rng.Intn(len(statuses))], Shift: 0.5}
			switch e.Status {
			case "":
				e.Shift, e.DeltaMs = shifts[rng.Intn(len(shifts))], deltas[rng.Intn(len(deltas))]
				e.NBefore, e.NAfter = 1+rng.Intn(9), 1+rng.Intn(9)
			case "appeared":
				e.NAfter, e.MedianAfterMs = 1+rng.Intn(9), 10*rng.Float64()
			default:
				e.NBefore, e.MedianBeforeMs = 1+rng.Intn(9), 10*rng.Float64()
			}
			entries = append(entries, e)
		}
		want := append([]ChangepointEntry(nil), entries...)
		rankChangepointSortSlice(want)
		got := append([]ChangepointEntry(nil), entries...)
		rankChangepoint(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ranking of %d entries differs\n got %s\nwant %s", trial, n, pairOrder(got), pairOrder(want))
		}
	}
}

func pairOrder(es []ChangepointEntry) string {
	s := ""
	for _, e := range es {
		s += fmt.Sprintf(" %s|%s(%q %g %g)", e.Country, e.Provider, e.Status, e.Shift, e.DeltaMs)
	}
	return s
}
