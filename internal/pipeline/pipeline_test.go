package pipeline

import (
	"testing"

	"repro/internal/cloud"
	"repro/internal/dataset"
	"repro/internal/lastmile"
	"repro/internal/netaddr"
	"repro/internal/netsim"
	"repro/internal/probes"
	"repro/internal/world"
)

var (
	testW   = world.MustBuild(world.Config{Seed: 1})
	testSim = netsim.New(testW)
	scFleet = probes.GenerateSpeedchecker(testW, probes.Config{Seed: 1, Scale: 0.02})
	proc    = NewProcessor(testW)
)

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

func probeOnISP(t *testing.T, country string, ispASN uint32) *probes.Probe {
	t.Helper()
	for _, p := range scFleet.InCountry(country) {
		if uint32(p.ISP.Number) == ispASN {
			return p
		}
	}
	t.Skipf("no probe on AS%d in %s at this scale", ispASN, country)
	return nil
}

func TestClassificationMatchesGroundTruth(t *testing.T) {
	// Over many traces the derived classes must agree with the builder's
	// intent except where capture artifacts (unresponsive hops) hide the
	// carrier — the §6.1 caveat.
	match, total := 0, 0
	for _, cc := range []string{"DE", "JP", "US", "BR", "EG"} {
		ps := scFleet.InCountry(cc)
		if len(ps) > 6 {
			ps = ps[:6]
		}
		for _, p := range ps {
			for _, r := range testW.Inventory.Regions()[:40] {
				tr := testSim.Traceroute(p, r, 0)
				got := proc.Process(&tr)
				if !got.ReachedCloud {
					continue
				}
				want := testW.Interconnect(p.ISP.Number, r.Provider.Code)
				total++
				switch want {
				case world.IcDirect:
					if got.Class == ClassDirect {
						match++
					}
				case world.IcDirectIXP:
					if got.Class == ClassDirectIXP || got.Class == ClassDirect {
						match++ // IXP hop only sometimes answers
					}
				case world.IcPrivateTransit:
					if got.Class == ClassPrivate {
						match++
					}
				case world.IcPublic:
					if got.Class == ClassPublic {
						match++
					}
				}
			}
		}
	}
	if total < 500 {
		t.Fatalf("too few classified traces: %d", total)
	}
	if frac := float64(match) / float64(total); frac < 0.75 {
		t.Errorf("classification agreement = %.2f (%d/%d), want ≥ 0.75", frac, match, total)
	}
}

func TestDirectClassExact(t *testing.T) {
	p := probeOnISP(t, "DE", 3320)
	r := regionOf(t, "AMZN", "Frankfurt")
	for i := 0; i < 20; i++ {
		tr := testSim.Traceroute(p, r, i)
		got := proc.Process(&tr)
		if !got.ReachedCloud {
			continue
		}
		if got.Class != ClassDirect {
			t.Errorf("trace %d: DT→AMZN class = %v, want direct", i, got.Class)
		}
		if got.Intermediates != 0 {
			t.Errorf("trace %d: %d intermediates on a direct path", i, got.Intermediates)
		}
	}
}

func TestPrivateTransitShowsCarrier(t *testing.T) {
	p := probeOnISP(t, "JP", 4713) // NTT OCN → Amazon is private transit
	r := regionOf(t, "AMZN", "Tokyo")
	sawCarrier := false
	for i := 0; i < 30; i++ {
		tr := testSim.Traceroute(p, r, i)
		got := proc.Process(&tr)
		if got.Class != ClassPrivate {
			continue
		}
		for _, h := range got.ASPath {
			if h.ASN == 2914 { // NTT GIN hauls in-country traffic (§6.2)
				sawCarrier = true
			}
		}
	}
	if !sawCarrier {
		t.Error("never observed NTT AS2914 as the private-transit carrier")
	}
}

func TestIXPTaggedAndStripped(t *testing.T) {
	p := probeOnISP(t, "DE", 3320)
	r := regionOf(t, "IBM", "Frankfurt") // DT→IBM is direct-via-IXP
	sawIXPClass := false
	for i := 0; i < 40; i++ {
		tr := testSim.Traceroute(p, r, i)
		got := proc.Process(&tr)
		for _, h := range got.ASPath {
			if _, isIXP := testW.IXPByASN(h.ASN); isIXP {
				t.Fatal("IXP left inside the AS-level path")
			}
		}
		if got.Class == ClassDirectIXP {
			sawIXPClass = true
			if len(got.IXPs) == 0 {
				t.Fatal("direct-via-IXP class without a tagged IXP")
			}
		}
	}
	if !sawIXPClass {
		t.Error("DT→IBM never classified as via-IXP")
	}
}

func TestLastMileInference(t *testing.T) {
	r := regionOf(t, "AMZN", "Frankfurt")
	kinds := map[ProbeKind]int{}
	for _, p := range scFleet.InCountry("DE") {
		for i := 0; i < 4; i++ {
			tr := testSim.Traceroute(p, r, i)
			got := proc.Process(&tr)
			kinds[got.LastMile.Kind]++
			if got.LastMile.Kind == KindUnknown {
				continue
			}
			if got.LastMile.UserToISPms <= 0 {
				t.Fatal("inferred last-mile without latency")
			}
			if got.LastMile.ShareOfTotal < 0 || got.LastMile.ShareOfTotal > 1 {
				t.Fatalf("share out of range: %v", got.LastMile.ShareOfTotal)
			}
			if got.LastMile.Kind == KindHome && got.LastMile.RouterToISPms >= got.LastMile.UserToISPms {
				t.Fatal("RTR-ISP must be a strict part of USR-ISP")
			}
		}
	}
	if kinds[KindHome] == 0 || kinds[KindCell] == 0 {
		t.Errorf("kind inference degenerate: %v", kinds)
	}
	// WiFi probes should mostly classify as home, cellular as cell —
	// with some artifact-driven crossover (§5 caveats).
	var homeRight, homeTotal int
	for _, p := range scFleet.InCountry("DE") {
		if p.Access != lastmile.WiFi {
			continue
		}
		tr := testSim.Traceroute(p, r, 0)
		got := proc.Process(&tr)
		if got.LastMile.Kind == KindUnknown {
			continue
		}
		homeTotal++
		if got.LastMile.Kind == KindHome {
			homeRight++
		}
	}
	if homeTotal > 10 && float64(homeRight)/float64(homeTotal) < 0.8 {
		t.Errorf("WiFi probes classified home only %d/%d", homeRight, homeTotal)
	}
}

func TestAtlasLastMileIsWired(t *testing.T) {
	at := probes.GenerateAtlas(testW, probes.Config{Seed: 1, Scale: 0.3})
	r := regionOf(t, "AMZN", "Frankfurt")
	ps := at.InCountry("DE")
	if len(ps) == 0 {
		t.Skip("no DE Atlas probes at this scale")
	}
	tr := testSim.Traceroute(ps[0], r, 0)
	got := proc.Process(&tr)
	if got.LastMile.Kind != KindWired {
		t.Errorf("Atlas probe inferred as %v", got.LastMile.Kind)
	}
}

func TestPervasivenessOrdering(t *testing.T) {
	p := scFleet.InCountry("DE")[0]
	gcp := regionOf(t, "GCP", "Frankfurt")
	vltr := regionOf(t, "VLTR", "Frankfurt")
	avg := func(r *cloud.Region) float64 {
		var sum float64
		n := 0
		for i := 0; i < 30; i++ {
			tr := testSim.Traceroute(p, r, i)
			got := proc.Process(&tr)
			if got.ReachedCloud {
				sum += got.Pervasiveness
				n++
			}
		}
		return sum / float64(n)
	}
	g, v := avg(gcp), avg(vltr)
	if g <= v {
		t.Errorf("GCP pervasiveness %.2f should exceed Vultr %.2f", g, v)
	}
}

func TestProcessAllAndDegenerates(t *testing.T) {
	p := scFleet.InCountry("FR")[0]
	r := regionOf(t, "GCP", "Frankfurt")
	store := &dataset.Store{}
	for i := 0; i < 5; i++ {
		tr := testSim.Traceroute(p, r, i)
		store.AddTrace(tr)
	}
	out := proc.ProcessAll(store)
	if len(out) != 5 {
		t.Fatalf("ProcessAll returned %d", len(out))
	}
	// Degenerate: empty trace.
	empty := dataset.TracerouteRecord{VP: store.Traces[0].VP, Target: store.Traces[0].Target}
	got := proc.Process(&empty)
	if got.Class != ClassUnknown || got.ReachedCloud || got.LastMile.Kind != KindUnknown {
		t.Errorf("empty trace should be fully unknown: %+v", got)
	}
	// Degenerate: first public hop outside the serving ISP.
	odd := empty
	odd.Hops = []dataset.Hop{{TTL: 1, IP: netaddr.MustParseIP("5.0.0.17"), RTTms: 10, Responded: true}}
	got = proc.Process(&odd)
	if got.LastMile.Kind != KindUnknown {
		t.Errorf("foreign first hop should not infer a last mile, got %v", got.LastMile.Kind)
	}
}
