package netsim

import (
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/geo"
)

// TestQuickPingInvariants drives random <probe, region, protocol, cycle>
// tuples through the simulator and checks the physical and structural
// invariants from DESIGN.md §5.
func TestQuickPingInvariants(t *testing.T) {
	all := scFleet.All()
	regions := testW.Inventory.Regions()
	f := func(pi, ri uint16, icmp bool, cycle uint8) bool {
		p := all[int(pi)%len(all)]
		r := regions[int(ri)%len(regions)]
		proto := dataset.TCP
		if icmp {
			proto = dataset.ICMP
		}
		rec := testSim.Ping(p, r, proto, int(cycle))
		// Physics: never beats light in fibre over the great circle.
		if rec.RTTms < geo.DistanceKm(p.Loc, r.Loc)/FibreKmPerMsRTT {
			return false
		}
		// Sanity: positive, bounded (nothing on Earth needs 5 seconds).
		if rec.RTTms <= 0 || rec.RTTms > 5000 {
			return false
		}
		// Metadata faithfully copied.
		return rec.VP.ProbeID == p.ID && rec.Target.Region == r.ID &&
			rec.VP.ISP == p.ISP.Number && rec.Protocol == proto &&
			rec.Target.IP == testW.RegionIP(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickTracerouteInvariants checks every random traceroute is
// structurally sound: contiguous TTLs, cumulative RTTs that respect the
// light bound at the destination, and hops that resolve to on-path ASes.
func TestQuickTracerouteInvariants(t *testing.T) {
	all := scFleet.All()
	regions := testW.Inventory.Regions()
	f := func(pi, ri uint16, cycle uint8) bool {
		p := all[int(pi)%len(all)]
		r := regions[int(ri)%len(regions)]
		tr := testSim.Traceroute(p, r, int(cycle))
		if len(tr.Hops) < 2 {
			return false
		}
		for i, h := range tr.Hops {
			if h.TTL != i+1 {
				return false
			}
			if h.Responded && h.RTTms <= 0 {
				return false
			}
			if !h.Responded && (h.IP != 0 || h.RTTms != 0) {
				return false
			}
		}
		if tr.Reached() {
			minRTT := geo.DistanceKm(p.Loc, r.Loc) / FibreKmPerMsRTT
			if tr.RTTms() < minRTT {
				return false
			}
		}
		// Every responding public hop resolves to the serving ISP, an
		// AS on the planned path, an exchange, or the provider.
		plan := testSim.buildPlan(p, r)
		onPath := map[uint32]bool{}
		for _, n := range plan.asPath {
			onPath[uint32(n)] = true
		}
		for _, h := range tr.Hops {
			if !h.Responded || h.IP.IsPrivate() {
				continue
			}
			a, ok := testW.Registry.ResolveIP(h.IP)
			if !ok {
				return false // every synthetic hop is attributable
			}
			if _, isIXP := testW.IXPByASN(a.Number); isIXP {
				continue
			}
			if !onPath[uint32(a.Number)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

// TestQuickPlanStability: the forwarding plan is a pure function of the
// pair — identical across calls — and its AS path endpoints are right.
func TestQuickPlanStability(t *testing.T) {
	all := scFleet.All()
	regions := testW.Inventory.Regions()
	f := func(pi, ri uint16) bool {
		p := all[int(pi)%len(all)]
		r := regions[int(ri)%len(regions)]
		a := testSim.buildPlan(p, r)
		b := testSim.buildPlan(p, r)
		if a.kind != b.kind || len(a.asPath) != len(b.asPath) {
			return false
		}
		for i := range a.asPath {
			if a.asPath[i] != b.asPath[i] {
				return false
			}
		}
		return a.asPath[0] == p.ISP.Number && a.asPath[len(a.asPath)-1] == r.Provider.ASN
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
