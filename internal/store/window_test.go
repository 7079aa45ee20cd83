package store

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/probes"
	"repro/internal/stats"
	"repro/internal/world"
)

// windowedBy computes ground-truth windowed vectors straight from the
// nearest assignment's index-aligned cycle columns, grouped per probe
// by group: the nearest-region choice is a whole-stream property, so
// the windowed store must return exactly the full assignment's samples
// filtered by cycle, never a re-derived assignment over the window.
func windowedBy(na analysis.NearestAssignment, w Window, group func(probe string) string) map[string][]float64 {
	out := map[string][]float64{}
	for probe, xs := range na.Samples {
		name := group(probe)
		cycles := na.Cycles[probe]
		for i, x := range xs {
			if w.Contains(int(cycles[i])) {
				out[name] = append(out[name], x)
			}
		}
	}
	for _, xs := range out {
		sort.Float64s(xs)
	}
	return out
}

// windowedByCountry is windowedBy grouped per VP country.
func windowedByCountry(na analysis.NearestAssignment, w Window) map[string][]float64 {
	return windowedBy(na, w, func(probe string) string { return na.Meta[probe].Country })
}

// dropEmpty normalizes a query result for comparison: a group whose
// samples all fall outside the window may come back as an empty slice
// or not at all, and both mean the same thing.
func dropEmpty(m map[string][]float64) map[string][]float64 {
	out := make(map[string][]float64, len(m))
	for k, xs := range m {
		if len(xs) > 0 {
			out[k] = append([]float64(nil), xs...)
		}
	}
	return out
}

// TestWindowedQueriesMatchGroundTruth is the longitudinal refactor's
// equivalence proof at the store layer: at partition counts 1/4/16,
// (a) unwindowed queries and explicit full-window queries are
// bit-identical to the pre-refactor single-partition layout, and
// (b) every sub-window query equals filtering the full nearest
// assignment by cycle — whether the window aligns with partition
// boundaries (the zone-map fast path) or cuts through them (the
// row-filter path).
func TestWindowedQueriesMatchGroundTruth(t *testing.T) {
	ds, processed := fixtureDataset(t)
	const cycles = 15 // fixture pings cover cycles 0..14
	baseline := FromDataset(ds, processed, Options{Shards: 4})
	provider := map[string]string{} // region ID -> provider, as the feed maps it
	for _, r := range ds.Pings {
		provider[r.Target.Region] = r.Target.Provider
	}
	full := Window{From: 0, To: cycles}
	subWindows := []Window{
		{From: 5},          // open above
		{To: 7},            // open below
		{From: 3, To: 11},  // interior, cuts through partitions
		{From: 7, To: 8},   // single cycle
		{From: 20, To: 25}, // past the campaign end: empty
	}

	for _, parts := range []int{1, 4, 16} {
		st := FromDataset(ds, processed, Options{Shards: 4, Partitions: parts, Cycles: cycles})

		// Unwindowed queries must not notice the partitioning.
		if got, want := st.LatencyMap(10), baseline.LatencyMap(10); !reflect.DeepEqual(got, want) {
			t.Errorf("partitions=%d: LatencyMap diverges from single-partition layout", parts)
		}
		if got, want := st.PlatformDiff(), baseline.PlatformDiff(); !reflect.DeepEqual(got, want) {
			t.Errorf("partitions=%d: PlatformDiff diverges from single-partition layout", parts)
		}
		if got, want := st.PeeringShares(), baseline.PeeringShares(); !reflect.DeepEqual(got, want) {
			t.Errorf("partitions=%d: PeeringShares diverges from single-partition layout", parts)
		}

		// A window explicitly spanning the whole campaign must answer
		// identically to no window at all.
		if got, want := dropEmpty(st.CountrySamplesWindow("speedchecker", full)), dropEmpty(baseline.CountrySamples("speedchecker")); !reflect.DeepEqual(got, want) {
			t.Errorf("partitions=%d: full-window CountrySamples diverges from unwindowed", parts)
		}
		if got, want := st.LatencyMapWindow(10, full), baseline.LatencyMap(10); !reflect.DeepEqual(got, want) {
			t.Errorf("partitions=%d: full-window LatencyMap diverges from unwindowed", parts)
		}
		if got, want := st.PlatformDiffWindow(full), baseline.PlatformDiff(); !reflect.DeepEqual(got, want) {
			t.Errorf("partitions=%d: full-window PlatformDiff diverges from unwindowed", parts)
		}
		if got, want := st.PeeringSharesWindow(full), baseline.PeeringShares(); !reflect.DeepEqual(got, want) {
			t.Errorf("partitions=%d: full-window PeeringShares diverges from unwindowed", parts)
		}

		for _, platform := range []string{"speedchecker", "atlas"} {
			na := analysis.CollectStore(ds).Nearest(platform)
			byContinent := func(probe string) string { return na.Meta[probe].Continent.String() }
			byPair := func(probe string) string {
				return pairName(na.Meta[probe].Country, provider[na.Region[probe]])
			}
			for _, w := range append([]Window{{}, full}, subWindows...) {
				got := dropEmpty(st.CountrySamplesWindow(platform, w))
				want := windowedByCountry(na, w)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("partitions=%d: CountrySamplesWindow(%s, %+v) diverges from cycle-filtered assignment", parts, platform, w)
				}
				conts := map[string][]float64{}
				for c, xs := range st.ContinentSamplesWindow(platform, w) {
					conts[c.String()] = xs
				}
				if got, want := dropEmpty(conts), windowedBy(na, w, byContinent); !reflect.DeepEqual(got, want) {
					t.Errorf("partitions=%d: ContinentSamplesWindow(%s, %+v) diverges from cycle-filtered assignment", parts, platform, w)
				}
				if got, want := dropEmpty(st.PairSamples(platform, w)), windowedBy(na, w, byPair); !reflect.DeepEqual(got, want) {
					t.Errorf("partitions=%d: PairSamples(%s, %+v) diverges from cycle-filtered assignment", parts, platform, w)
				}
			}
		}

		// Quantiles over a sub-window must come from the windowed merge.
		w := Window{From: 3, To: 11}
		want := windowedByCountry(analysis.CollectStore(ds).Nearest("speedchecker"), w)
		merged := st.CountrySamplesWindow("speedchecker", w)
		for country, xs := range want {
			got, err := stats.QuantilesSorted(merged[country], 0.25, 0.5, 0.9)
			if err != nil {
				t.Fatalf("partitions=%d: quantiles of windowed %s: %v", parts, country, err)
			}
			if n := len(merged[country]); n != len(xs) {
				t.Errorf("partitions=%d: windowed %s n = %d, want %d", parts, country, n, len(xs))
			}
			if wq, _ := stats.Quantiles(xs, 0.25, 0.5, 0.9); !reflect.DeepEqual(got, wq) {
				t.Errorf("partitions=%d: windowed %s quantiles = %v, want %v", parts, country, got, wq)
			}
		}
	}
}

// TestChangepointDetectsCableCut runs a real campaign under the seeded
// cable-cut scenario — the Fig. 6a African countries lose their
// international paths at the campaign midpoint, +45 ms towards every
// foreign region — and proves the changepoint detector finds it: the
// affected country×provider pairs rank first with a shift score near 1
// and a delta around the injected penalty, no well-sampled unaffected
// pair looks like a regression, and a control split placed entirely
// before the cut detects nothing.
func TestChangepointDetectsCableCut(t *testing.T) {
	const cycles = 4
	scn, err := netsim.ScenarioProfile(netsim.ScenarioCableCut, cycles, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := world.MustBuild(world.Config{Seed: 1})
	sim := netsim.New(w)
	sim.Events = scn.Events
	sc := probes.GenerateSpeedchecker(w, probes.Config{Seed: 1, Scale: 0.05})
	feed := NewFeed(pipeline.NewProcessor(w), Options{Shards: 4, Partitions: cycles, Cycles: cycles})
	cfg := measure.Config{
		Seed: 1, Cycles: cycles, ProbesPerCountry: 16, TargetsPerProbe: 4,
		MinProbesPerCountry: 1, RequestsPerMinute: 1000, Workers: 4,
		BothPingProtocols: measure.FlagOn,
		RegionAvailable:   scn.RegionAvailable,
		Sink:              feed,
	}
	campaign, err := measure.New(sim, sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err := campaign.Run(context.Background()); err != nil {
		t.Fatal(err)
	} else if st.SinkDegraded || st.Spilled > 0 {
		t.Fatalf("campaign degraded its sink: %+v", st)
	}
	st := feed.Seal()

	affected := map[string]bool{ // the Fig. 6a country list the scenario cuts
		"DZ": true, "EG": true, "ET": true, "KE": true,
		"MA": true, "SN": true, "TN": true, "ZA": true,
	}
	const minN = 6 // per-side sample floor before a pair's score is trusted

	at := cycles / 2 // the scenario fires at the campaign midpoint
	entries := st.Changepoint("speedchecker", at, 0)
	if len(entries) == 0 {
		t.Fatal("changepoint scan returned no pairs")
	}

	var hits int
	var firstScored *ChangepointEntry
	for i := range entries {
		e := entries[i]
		if e.Status != "" || e.NBefore < minN || e.NAfter < minN {
			continue
		}
		if firstScored == nil {
			firstScored = &entries[i]
		}
		if e.Shift >= 0.9 {
			if !affected[e.Country] {
				t.Errorf("unaffected pair %s×%s scored as a regression: shift %.3f, delta %.1f ms (n=%d/%d)",
					e.Country, e.Provider, e.Shift, e.DeltaMs, e.NBefore, e.NAfter)
			}
			hits++
		}
	}
	if hits == 0 {
		t.Fatalf("no affected pair detected; entries: %+v", entries[:min(len(entries), 8)])
	}
	if firstScored == nil {
		t.Fatal("no well-sampled scored pair in the ranking")
	}
	if !affected[firstScored.Country] || firstScored.Shift < 0.95 || firstScored.DeltaMs < 30 {
		t.Errorf("top-ranked pair is not the cable cut: %+v", *firstScored)
	}

	// Control: a split placed entirely before the cut compares two
	// pre-event cycles and must find nothing.
	for _, e := range st.Changepoint("speedchecker", at-1, 1) {
		if e.Status != "" || e.NBefore < minN || e.NAfter < minN {
			continue
		}
		if e.Shift >= 0.9 || e.Shift <= 0.1 {
			t.Errorf("pre-cut control window flags %s×%s: shift %.3f, delta %.1f ms (n=%d/%d)",
				e.Country, e.Provider, e.Shift, e.DeltaMs, e.NBefore, e.NAfter)
		}
	}
}
