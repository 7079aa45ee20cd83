package netsim

import (
	"reflect"
	"testing"

	"repro/internal/cloud"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/lastmile"
	"repro/internal/probes"
	"repro/internal/stats"
	"repro/internal/world"
)

var (
	testW   = world.MustBuild(world.Config{Seed: 1})
	testSim = New(testW)
	scFleet = probes.GenerateSpeedchecker(testW, probes.Config{Seed: 1, Scale: 0.02})
)

func probeIn(t *testing.T, country string, access lastmile.Access) *probes.Probe {
	t.Helper()
	for _, p := range scFleet.InCountry(country) {
		if p.Access == access {
			return p
		}
	}
	t.Fatalf("no %v probe in %s", access, country)
	return nil
}

func regionOf(t *testing.T, provider, city string) *cloud.Region {
	t.Helper()
	for _, r := range testW.Inventory.RegionsOf(provider) {
		if r.City == city {
			return r
		}
	}
	t.Fatalf("no %s region in %s", provider, city)
	return nil
}

func pingSeries(p *probes.Probe, r *cloud.Region, n int) []float64 {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = testSim.Ping(p, r, dataset.TCP, i).RTTms
	}
	return out
}

func TestPingDeterminism(t *testing.T) {
	p := probeIn(t, "DE", lastmile.WiFi)
	r := regionOf(t, "AMZN", "Frankfurt")
	a := testSim.Ping(p, r, dataset.TCP, 7)
	b := testSim.Ping(p, r, dataset.TCP, 7)
	if a.RTTms != b.RTTms {
		t.Errorf("same measurement drew different RTTs: %v vs %v", a.RTTms, b.RTTms)
	}
	c := testSim.Ping(p, r, dataset.TCP, 8)
	if a.RTTms == c.RTTms {
		t.Error("different cycles should draw different RTTs")
	}
}

func TestSpeedOfLightBound(t *testing.T) {
	r := regionOf(t, "AMZN", "Sydney")
	for _, cc := range []string{"DE", "US", "BR", "JP", "ZA"} {
		p := scFleet.InCountry(cc)[0]
		minRTT := geo.DistanceKm(p.Loc, r.Loc) / FibreKmPerMsRTT
		for i := 0; i < 20; i++ {
			rtt := testSim.Ping(p, r, dataset.TCP, i).RTTms
			if rtt < minRTT {
				t.Fatalf("%s→Sydney RTT %.1f ms beats light in fibre (%.1f ms)", cc, rtt, minRTT)
			}
		}
	}
}

func TestEuropeanInCountryLatency(t *testing.T) {
	p := probeIn(t, "DE", lastmile.WiFi)
	r := regionOf(t, "AMZN", "Frankfurt")
	med, _ := stats.Median(pingSeries(p, r, 400))
	if med < 22 || med > 65 {
		t.Errorf("DE→Frankfurt median = %.1f ms, want ≈ 30-55 (wireless last-mile dominated)", med)
	}
}

func TestDistanceDominates(t *testing.T) {
	// §4.1: geographic distance to the DC is the primary factor.
	p := probeIn(t, "EG", lastmile.Cellular)
	za := regionOf(t, "AMZN", "Cape Town")
	fra := regionOf(t, "AMZN", "Frankfurt")
	medZA, _ := stats.Median(pingSeries(p, za, 300))
	medEU, _ := stats.Median(pingSeries(p, fra, 300))
	if medEU >= medZA {
		t.Errorf("Egypt: EU datacenter (%.0f ms) should beat the in-continent ZA one (%.0f ms)", medEU, medZA)
	}
	if medZA < 120 {
		t.Errorf("Egypt→Cape Town median = %.0f ms, implausibly fast", medZA)
	}
	if medEU > 120 {
		t.Errorf("Egypt→Frankfurt median = %.0f ms, implausibly slow", medEU)
	}
}

func TestAndeanCrossover(t *testing.T) {
	// §4.3: Bolivia reaches NA datacenters about as fast as the Brazilian
	// ones despite the shorter distance to Brazil.
	p := scFleet.InCountry("BO")[0]
	br := regionOf(t, "AMZN", "Sao Paulo")
	na := regionOf(t, "AMZN", "Ashburn")
	medBR, _ := stats.Median(pingSeries(p, br, 300))
	medNA, _ := stats.Median(pingSeries(p, na, 300))
	ratio := medBR / medNA
	if ratio < 0.6 || ratio > 1.6 {
		t.Errorf("Bolivia BR/NA median ratio = %.2f (BR %.0f, NA %.0f), want near parity", ratio, medBR, medNA)
	}
}

func TestDirectPeeringCutsTailsInAsia(t *testing.T) {
	// §6.2 / Fig 13b: towards Indian DCs, direct peering keeps latency
	// variation far below transit paths.
	mumbai := regionOf(t, "GCP", "Mumbai")     // KDDI peers directly with GCP
	mumbaiDO := regionOf(t, "DO", "Bangalore") // DO is strictly public in Asia
	var p *probes.Probe
	for _, cand := range scFleet.InCountry("JP") {
		if cand.ISP.Number == 2516 { // KDDI: overridden to direct (Fig 13a)
			p = cand
			break
		}
	}
	if p == nil {
		t.Skip("no KDDI probe at this scale")
	}

	direct, _ := stats.Summarize(pingSeries(p, mumbai, 400))
	public, _ := stats.Summarize(pingSeries(p, mumbaiDO, 400))
	if got := testSim.buildPlan(p, mumbai).kind; got != world.IcDirect && got != world.IcDirectIXP {
		t.Fatalf("JP→GCP plan kind = %v, want direct", got)
	}
	if got := testSim.buildPlan(p, mumbaiDO).kind; got != world.IcPublic {
		t.Fatalf("JP→DO plan kind = %v, want public", got)
	}
	if direct.IQR() >= public.IQR() {
		t.Errorf("direct IQR %.1f should be below public IQR %.1f", direct.IQR(), public.IQR())
	}
	if direct.Median >= public.Median {
		t.Errorf("direct median %.0f should not exceed public median %.0f", direct.Median, public.Median)
	}
}

func TestEuropeDirectVsTransitComparable(t *testing.T) {
	// §6.2 / Fig 12b: DE→UK, direct peering barely moves the median.
	p := probeIn(t, "DE", lastmile.WiFi)
	direct := regionOf(t, "AMZN", "London") // DT/Vodafone peer directly
	lin := regionOf(t, "LIN", "London")     // Linode via one carrier
	medDirect, _ := stats.Median(pingSeries(p, direct, 400))
	medTransit, _ := stats.Median(pingSeries(p, lin, 400))
	if diff := medTransit - medDirect; diff < -8 || diff > 12 {
		t.Errorf("DE→UK direct %.1f vs transit %.1f: gap %.1f ms, want minimal", medDirect, medTransit, diff)
	}
}

func TestICMPSlightlyAboveTCP(t *testing.T) {
	p := probeIn(t, "DE", lastmile.WiFi)
	r := regionOf(t, "AMZN", "Frankfurt")
	var tcp, icmp []float64
	for i := 0; i < 400; i++ {
		tcp = append(tcp, testSim.Ping(p, r, dataset.TCP, i).RTTms)
		icmp = append(icmp, testSim.Ping(p, r, dataset.ICMP, i).RTTms)
	}
	mt, _ := stats.Median(tcp)
	mi, _ := stats.Median(icmp)
	if mi <= mt {
		t.Errorf("ICMP median %.2f should sit above TCP %.2f", mi, mt)
	}
	if (mi-mt)/mt > 0.12 {
		t.Errorf("ICMP/TCP gap = %.1f%%, want small (§3.3: ≈2%%)", 100*(mi-mt)/mt)
	}
}

func TestWiredBeatsWireless(t *testing.T) {
	// §4.2: the wired Atlas last-mile beats wireless by 2-3× at the
	// access segment, pulling the end-to-end RTT down.
	at := probes.GenerateAtlas(testW, probes.Config{Seed: 1, Scale: 0.3})
	var wired *probes.Probe
	for _, p := range at.InCountry("DE") {
		wired = p
		break
	}
	if wired == nil {
		t.Skip("no Atlas probe in DE at this scale")
	}
	wireless := probeIn(t, "DE", lastmile.WiFi)
	r := regionOf(t, "AMZN", "Frankfurt")
	mWired, _ := stats.Median(pingSeries(wired, r, 300))
	mWireless, _ := stats.Median(pingSeries(wireless, r, 300))
	if mWired >= mWireless {
		t.Errorf("wired median %.1f should beat wireless %.1f", mWired, mWireless)
	}
}

func TestTracerouteStructure(t *testing.T) {
	p := probeIn(t, "DE", lastmile.WiFi)
	r := regionOf(t, "AMZN", "Frankfurt")
	sawPrivateFirst, sawReached := false, false
	for i := 0; i < 50; i++ {
		tr := testSim.Traceroute(p, r, i)
		if len(tr.Hops) < 3 {
			t.Fatalf("trace %d too short: %d hops", i, len(tr.Hops))
		}
		for j, h := range tr.Hops {
			if h.TTL != j+1 {
				t.Fatalf("trace %d hop %d has TTL %d", i, j, h.TTL)
			}
		}
		if tr.Hops[0].Responded && tr.Hops[0].IP.IsPrivate() {
			sawPrivateFirst = true
		}
		if tr.Reached() {
			sawReached = true
			if tr.RTTms() <= 0 {
				t.Fatal("reached trace with non-positive RTT")
			}
		}
	}
	if !sawPrivateFirst {
		t.Error("home probe never showed a private first hop")
	}
	if !sawReached {
		t.Error("no trace reached the target in 50 tries")
	}
}

func TestTracerouteDeterminism(t *testing.T) {
	p := probeIn(t, "JP", lastmile.Cellular)
	r := regionOf(t, "GCP", "Tokyo")
	a := testSim.Traceroute(p, r, 3)
	b := testSim.Traceroute(p, r, 3)
	if len(a.Hops) != len(b.Hops) {
		t.Fatalf("hop counts differ: %d vs %d", len(a.Hops), len(b.Hops))
	}
	for i := range a.Hops {
		if a.Hops[i] != b.Hops[i] {
			t.Fatalf("hop %d differs", i)
		}
	}
}

// TestPairCarriesNoState runs one Pair's measurements in two different
// orders, interleaved with other pairs' measurements on other
// goroutines, and requires every record to equal the one a fresh plan
// yields: the plan is laid once, and the pooled generators leave no
// state behind between measurements.
func TestPairCarriesNoState(t *testing.T) {
	p := probeIn(t, "BR", lastmile.Cellular)
	r := regionOf(t, "AMZN", "Ashburn")
	pr := testSim.Pair(p, r)
	const n = 40
	done := make(chan struct{})
	go func() {
		defer close(done)
		other := testSim.Pair(probeIn(t, "JP", lastmile.WiFi), regionOf(t, "GCP", "Tokyo"))
		for i := 0; i < 4*n; i++ {
			other.Ping(dataset.ICMP, i)
			other.Traceroute(i)
		}
	}()
	for i := n - 1; i >= 0; i-- {
		for _, proto := range []dataset.Protocol{dataset.TCP, dataset.ICMP} {
			if got, want := pr.Ping(proto, i), testSim.Ping(p, r, proto, i); !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d %v: reused pair %+v, fresh plan %+v", i, proto, got, want)
			}
		}
		if got, want := pr.Traceroute(i), testSim.Traceroute(p, r, i); !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: reused pair's trace differs from a fresh plan's", i)
		}
	}
	<-done
}

// TestMeasurementAllocs pins what one measurement over a laid plan
// allocates: nothing for a ping, the hop slice for a traceroute. A
// generator built per measurement (rand.NewSource is a 4.9 KB register)
// fails it. Laying a plan allocates its AS path and segments, plus what
// the public detour's route search needs. The race detector's sync.Pool
// drops items at random, so the counts only hold without it.
func TestMeasurementAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool keeps nothing reliably under the race detector")
	}
	for _, c := range []struct {
		country        string
		access         lastmile.Access
		provider, city string
		max            float64
	}{
		{"DE", lastmile.WiFi, "AMZN", "Frankfurt", 2}, // direct
		{"EG", lastmile.Cellular, "AMZN", "Frankfurt", 2},
		{"GB", lastmile.WiFi, "IBM", "Frankfurt", 1}, // private transit
		{"DE", lastmile.WiFi, "VLTR", "London", 4},   // public
	} {
		p, r := probeIn(t, c.country, c.access), regionOf(t, c.provider, c.city)
		if n := testing.AllocsPerRun(100, func() { testSim.Pair(p, r) }); n > c.max {
			t.Errorf("Simulator.Pair(%s %v, %s %s) allocates %v times, want at most %v",
				c.country, c.access, c.provider, c.city, n, c.max)
		}
	}
	pr := testSim.Pair(probeIn(t, "DE", lastmile.WiFi), regionOf(t, "AMZN", "Frankfurt"))
	cycle := 0
	if n := testing.AllocsPerRun(200, func() {
		cycle++
		pr.Ping(dataset.TCP, cycle)
	}); n != 0 {
		t.Errorf("Pair.Ping allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		cycle++
		pr.Traceroute(cycle)
	}); n != 1 {
		t.Errorf("Pair.Traceroute allocates %v times, want 1 (its hops)", n)
	}
}

func BenchmarkSimulatorPair(b *testing.B) {
	ps, regions := scFleet.All(), testW.Inventory.Regions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		testSim.Pair(ps[i%len(ps)], regions[i%len(regions)])
	}
}

func TestTracerouteLastMileSegment(t *testing.T) {
	// The first responding in-ISP hop carries the USR-ISP latency; for
	// home probes the preceding private hop carries the air segment, so
	// the RTR-ISP wired tail is the difference (§5 methodology).
	p := probeIn(t, "GB", lastmile.WiFi)
	r := regionOf(t, "AMZN", "London")
	for i := 0; i < 30; i++ {
		tr := testSim.Traceroute(p, r, i)
		if !tr.Hops[0].Responded || !tr.Hops[0].IP.IsPrivate() {
			continue // public-router artifact draw
		}
		air := tr.Hops[0].RTTms
		full := tr.Hops[1].RTTms
		if full <= air {
			t.Fatalf("trace %d: USR-ISP %.2f not above air segment %.2f", i, full, air)
		}
		if full > 120 {
			t.Fatalf("trace %d: absurd last-mile %.1f ms", i, full)
		}
	}
}

func TestPervasivenessShape(t *testing.T) {
	// Fig 11: hypergiants own most of the route; public-backbone
	// providers own only the datacenter edge.
	p := probeIn(t, "DE", lastmile.WiFi)
	gcp := regionOf(t, "GCP", "London")
	vltr := regionOf(t, "VLTR", "London")
	count := func(r *cloud.Region) (provider, total int) {
		for i := 0; i < 40; i++ {
			tr := testSim.Traceroute(p, r, i)
			for _, h := range tr.Hops {
				if !h.Responded || h.IP.IsPrivate() {
					continue
				}
				total++
				if a, ok := testW.Registry.ResolveIP(h.IP); ok && a.Number == r.Provider.ASN {
					provider++
				}
			}
		}
		return
	}
	gp, gt := count(gcp)
	vp, vt := count(vltr)
	gFrac := float64(gp) / float64(gt)
	vFrac := float64(vp) / float64(vt)
	if gFrac <= vFrac {
		t.Errorf("GCP pervasiveness %.2f should exceed Vultr %.2f", gFrac, vFrac)
	}
	if gFrac < 0.4 {
		t.Errorf("GCP pervasiveness = %.2f, want hypergiant-level", gFrac)
	}
}

func TestIXPHopAppears(t *testing.T) {
	// DT→IBM is a direct-via-IXP interconnect; the exchange LAN should
	// show up in most traces.
	var dtProbe *probes.Probe
	for _, p := range scFleet.InCountry("DE") {
		if p.ISP.Number == 3320 {
			dtProbe = p
			break
		}
	}
	if dtProbe == nil {
		t.Skip("no DT-homed probe at this scale")
	}
	r := regionOf(t, "IBM", "Frankfurt")
	if kind := testSim.buildPlan(dtProbe, r).kind; kind != world.IcDirectIXP {
		t.Fatalf("DT→IBM kind = %v", kind)
	}
	seen := 0
	for i := 0; i < 60; i++ {
		tr := testSim.Traceroute(dtProbe, r, i)
		for _, h := range tr.Hops {
			if !h.Responded {
				continue
			}
			if a, ok := testW.Registry.ResolveIP(h.IP); ok {
				if _, isIXP := testW.IXPByASN(a.Number); isIXP {
					seen++
					break
				}
			}
		}
	}
	if seen < 20 || seen == 60 {
		t.Errorf("IXP hop visible in %d/60 traces, want sometimes-but-not-always", seen)
	}
}

func TestCGNArtifact(t *testing.T) {
	p := probeIn(t, "EG", lastmile.Cellular)
	r := regionOf(t, "AMZN", "Frankfurt")
	cgn := 0
	for i := 0; i < 200; i++ {
		tr := testSim.Traceroute(p, r, i)
		if tr.Hops[0].Responded && tr.Hops[0].IP.IsCGN() {
			cgn++
		}
	}
	if cgn == 0 || cgn > 40 {
		t.Errorf("CGN first hops = %d/200, want a small but present fraction", cgn)
	}
}
