package core

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/netsim"
)

// goldenCountries is the campaigns' country subset: every continent
// sends probes, the African ones target Europe and North America too,
// Brazil targets North America, and four of them sit behind the
// cable-cut scenario's cut.
var goldenCountries = []string{"BR", "JP", "KE", "EG", "MX", "NZ", "CN", "MA", "ZA"}

// TestCampaignRecordsGolden pins the absolute output of two small
// campaigns: the record counts and an order-independent hash over every
// field of every ping and traceroute record, hops included. The cluster
// proofs compare a fleet against a single process, so a change that
// moved every sample value would pass them; this test fails it. Workers
// deliver records in no fixed order, so "the same records" means the
// same multiset, which is what a sum of per-record hashes pins.
//
// The constants were written by the simulator as it stood before the
// per-task forwarding plan and the lazily seeded source (CHANGES.md).
// Only a change that means to move sample values — a new generator,
// quantised RTTs — may regenerate them, and it must say so.
func TestCampaignRecordsGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		// launch also gates DigitalOcean regions behind the
		// region-launch scenario, on top of cfg.Scenario's events.
		launch        bool
		pings, traces int
		sum           uint64
	}{
		{
			name:  "plain",
			cfg:   Config{Seed: 1, Scale: 0.05, Cycles: 2},
			pings: 10240, traces: 10240, sum: 0x0aa5900980cbb471,
		},
		{
			name: "faults+cable-cut+region-launch+diurnal",
			cfg: Config{Seed: 7, Scale: 0.05, Cycles: 3, FaultProfile: "flaky-wireless",
				Scenario: netsim.ScenarioCableCut, DiurnalAmplitude: 0.4},
			launch: true,
			pings:  9566, traces: 9431, sum: 0xe5c9e4f411de1d97,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setup, err := Prepare(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.launch {
				var ids []string
				for _, r := range setup.World.Inventory.Regions() {
					ids = append(ids, r.ID)
				}
				rl, err := netsim.ScenarioProfile(netsim.ScenarioRegionLaunch, setup.Config.Cycles, ids)
				if err != nil {
					t.Fatal(err)
				}
				setup.Scenario.RegionLaunches = rl.RegionLaunches
			}
			ds, _, _, err := setup.RunCampaignsOver(context.Background(), goldenCountries)
			if err != nil {
				t.Fatal(err)
			}
			var sum uint64
			for i := range ds.Pings {
				sum += pingHash(&ds.Pings[i])
			}
			for i := range ds.Traces {
				sum += traceHash(&ds.Traces[i])
			}
			if len(ds.Pings) != tc.pings || len(ds.Traces) != tc.traces || sum != tc.sum {
				t.Errorf("records moved: got pings %d, traces %d, sum %#x; want %d, %d, %#x",
					len(ds.Pings), len(ds.Traces), sum, tc.pings, tc.traces, tc.sum)
			}
		})
	}
}

// recordHasher writes record fields into FNV-1a with fixed widths and
// length-prefixed strings, so no two distinct records share a byte
// stream.
type recordHasher struct{ buf []byte }

func (h *recordHasher) str(s string) {
	h.num(uint64(len(s)))
	h.buf = append(h.buf, s...)
}

func (h *recordHasher) num(v uint64) { h.buf = binary.LittleEndian.AppendUint64(h.buf, v) }

func (h *recordHasher) float(v float64) { h.num(math.Float64bits(v)) }

func (h *recordHasher) endpoints(vp dataset.VantagePoint, tg dataset.Target) {
	h.str(vp.ProbeID)
	h.str(vp.Platform)
	h.str(vp.Country)
	h.num(uint64(vp.Continent))
	h.num(uint64(vp.ISP))
	h.num(uint64(vp.Access))
	h.str(tg.Region)
	h.str(tg.Provider)
	h.str(tg.Country)
	h.num(uint64(tg.Continent))
	h.num(uint64(tg.IP))
}

func (h *recordHasher) sum() uint64 {
	f := fnv.New64a()
	f.Write(h.buf)
	return f.Sum64()
}

func pingHash(p *dataset.PingRecord) uint64 {
	h := &recordHasher{buf: []byte{'P'}}
	h.endpoints(p.VP, p.Target)
	h.num(uint64(p.Protocol))
	h.float(p.RTTms)
	h.num(uint64(p.Cycle))
	h.num(uint64(p.VTime))
	return h.sum()
}

func traceHash(tr *dataset.TracerouteRecord) uint64 {
	h := &recordHasher{buf: []byte{'T'}}
	h.endpoints(tr.VP, tr.Target)
	h.num(uint64(len(tr.Hops)))
	for _, hop := range tr.Hops {
		h.num(uint64(hop.TTL))
		h.num(uint64(hop.IP))
		h.float(hop.RTTms)
		if hop.Responded {
			h.num(1)
		} else {
			h.num(0)
		}
	}
	h.num(uint64(tr.Cycle))
	h.num(uint64(tr.VTime))
	return h.sum()
}
