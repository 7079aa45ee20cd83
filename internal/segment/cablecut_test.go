package segment

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/probes"
	"repro/internal/store"
	"repro/internal/world"
)

// TestSketchChangepointDetectsCableCut is store's
// TestChangepointDetectsCableCut on the sketch path: the same seeded
// cable-cut campaign — the Fig. 6a African countries lose their
// international paths at the midpoint, +45 ms towards every foreign
// region — sealed with one partition per cycle, written, and opened in
// sketch mode. At the partition-aligned split the digests answer: the
// affected pairs rank first with a shift near 1 and a delta around the
// penalty, no well-sampled unaffected pair looks like a regression, and
// a control split entirely before the cut detects nothing.
func TestSketchChangepointDetectsCableCut(t *testing.T) {
	const cycles = 4
	scn, err := netsim.ScenarioProfile(netsim.ScenarioCableCut, cycles, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := world.MustBuild(world.Config{Seed: 1})
	sim := netsim.New(w)
	sim.Events = scn.Events
	sc := probes.GenerateSpeedchecker(w, probes.Config{Seed: 1, Scale: 0.05})
	feed := store.NewFeed(pipeline.NewProcessor(w), store.Options{Shards: 4, Partitions: cycles, Cycles: cycles})
	campaign, err := measure.New(sim, sc, measure.Config{
		Seed: 1, Cycles: cycles, ProbesPerCountry: 16, TargetsPerProbe: 4,
		MinProbesPerCountry: 1, RequestsPerMinute: 1000, Workers: 4,
		BothPingProtocols: measure.FlagOn,
		RegionAvailable:   scn.RegionAvailable,
		Sink:              feed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, st, err := campaign.Run(context.Background()); err != nil {
		t.Fatal(err)
	} else if st.SinkDegraded || st.Spilled > 0 {
		t.Fatalf("campaign degraded its sink: %+v", st)
	}
	dir := t.TempDir()
	if err := Write(dir, feed.Seal()); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	exact, err := Open(dir, Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer exact.Close()

	affected := map[string]bool{ // the Fig. 6a country list the scenario cuts
		"DZ": true, "EG": true, "ET": true, "KE": true,
		"MA": true, "SN": true, "TN": true, "ZA": true,
	}
	const minN = 6 // per-side sample floor before a pair's score is trusted
	wellSampled := func(e store.ChangepointEntry) bool {
		return e.Status == "" && e.NBefore >= minN && e.NAfter >= minN
	}
	scan := func(at, width int) []store.ChangepointEntry {
		t.Helper()
		before, after := store.ChangepointWindows(at, width)
		for _, w := range []store.Window{before, after} {
			if _, _, ok := r.alignedRun(w); !ok {
				t.Fatalf("window %+v cuts a partition: the scan would not read the digests", w)
			}
		}
		got := r.Changepoint("speedchecker", at, width)
		// Every side here holds fewer than 2δ/π observations: singleton
		// digests, on which the shift walk and the median are exact.
		if want := exact.Changepoint("speedchecker", at, width); !reflect.DeepEqual(got, want) {
			t.Errorf("changepoint at %d width %d: the sketch ranking differs from the exact one", at, width)
		}
		return got
	}

	entries := scan(cycles/2, 0) // the scenario fires at the campaign midpoint
	var hits int
	var first *store.ChangepointEntry
	for i, e := range entries {
		if !wellSampled(e) {
			continue
		}
		if first == nil {
			first = &entries[i]
		}
		if e.Shift >= 0.9 {
			if !affected[e.Country] {
				t.Errorf("unaffected pair %s×%s scored as a regression: shift %.3f, delta %.1f ms (n=%d/%d)",
					e.Country, e.Provider, e.Shift, e.DeltaMs, e.NBefore, e.NAfter)
			}
			hits++
		}
	}
	if hits == 0 || first == nil {
		t.Fatalf("no affected pair detected; entries: %+v", entries[:min(len(entries), 8)])
	}
	if !affected[first.Country] || first.Shift < 0.95 || first.DeltaMs < 30 {
		t.Errorf("top-ranked pair is not the cable cut: %+v", *first)
	}

	for _, e := range scan(cycles/2-1, 1) { // two pre-cut cycles: nothing to find
		if wellSampled(e) && (e.Shift >= 0.9 || e.Shift <= 0.1) {
			t.Errorf("pre-cut control window flags %s×%s: shift %.3f, delta %.1f ms (n=%d/%d)",
				e.Country, e.Provider, e.Shift, e.DeltaMs, e.NBefore, e.NAfter)
		}
	}
}
