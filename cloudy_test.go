package cloudy_test

import (
	"bytes"
	"context"
	"testing"

	cloudy "repro"
	"repro/internal/asn"
)

type asnNumber = asn.Number

// TestPublicAPI exercises the facade the examples and downstream users
// consume: world → simulator → fleet → campaign → pipeline, plus the
// dataset codecs.
func TestPublicAPI(t *testing.T) {
	w, err := cloudy.NewWorld(5)
	if err != nil {
		t.Fatal(err)
	}
	sim := cloudy.NewSimulator(w)
	fleet := cloudy.SpeedcheckerFleet(w, cloudy.FleetConfig{Seed: 5, Scale: 0.01})
	if fleet.Len() == 0 {
		t.Fatal("empty fleet")
	}
	atlas := cloudy.AtlasFleet(w, cloudy.FleetConfig{Seed: 5, Scale: 0.2})
	if atlas.Len() == 0 {
		t.Fatal("empty atlas fleet")
	}

	camp, err := cloudy.NewCampaign(sim, fleet, cloudy.CampaignConfig{
		Seed: 5, Cycles: 1, TargetsPerProbe: 3, MinProbesPerCountry: 2,
		RequestsPerMinute: 1000, Workers: 4, Traceroutes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, stats, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	np, nt := store.Len()
	if np == 0 || nt == 0 || stats.Pings != np {
		t.Fatalf("campaign: %d pings, %d traces, stats %+v", np, nt, stats)
	}

	processed := cloudy.NewProcessor(w).ProcessAll(store)
	if len(processed) != nt {
		t.Fatalf("processed %d of %d", len(processed), nt)
	}

	var pings, traces bytes.Buffer
	if err := cloudy.WritePingsCSV(&pings, store.Pings); err != nil {
		t.Fatal(err)
	}
	back, err := cloudy.ReadPingsCSV(&pings)
	if err != nil || len(back) != np {
		t.Fatalf("ping round trip: %d records, err %v", len(back), err)
	}
	if err := cloudy.WriteTracesJSONL(&traces, store.Traces); err != nil {
		t.Fatal(err)
	}
	backT, err := cloudy.ReadTracesJSONL(&traces)
	if err != nil || len(backT) != nt {
		t.Fatalf("trace round trip: %d records, err %v", len(backT), err)
	}
}

func TestThresholdConstants(t *testing.T) {
	if cloudy.MTPms != 20 || cloudy.HPLms != 100 || cloudy.HRTms != 250 {
		t.Errorf("QoE thresholds drifted: %v %v %v", cloudy.MTPms, cloudy.HPLms, cloudy.HRTms)
	}
}

// TestFacadeExtensions exercises the facade's relationship inference
// over paths between facade-built world ISPs.
func TestFacadeExtensions(t *testing.T) {
	w, err := cloudy.NewWorld(8)
	if err != nil {
		t.Fatal(err)
	}
	var paths [][]asnNumber
	for _, a := range w.AccessISPs("FR") {
		for _, b := range w.AccessISPs("DE") {
			if p, ok := w.Graph.Path(a.Number, b.Number); ok {
				paths = append(paths, p)
			}
		}
	}
	if edges := cloudy.InferASRelationships(paths); len(edges) == 0 {
		t.Error("no relationships inferred")
	}
}
