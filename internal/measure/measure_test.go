package measure

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/netsim"
	"repro/internal/probes"
	"repro/internal/world"
)

var (
	testW   = world.MustBuild(world.Config{Seed: 1})
	testSim = netsim.New(testW)
	testSC  = probes.GenerateSpeedchecker(testW, probes.Config{Seed: 1, Scale: 0.01})
)

func smallConfig() Config {
	return Config{
		Seed:                     1,
		Cycles:                   1,
		ProbesPerCountry:         2,
		TargetsPerProbe:          3,
		MinProbesPerCountry:      2,
		RequestsPerMinute:        60,
		Workers:                  4,
		BothPingProtocols:        FlagOn,
		Traceroutes:              true,
		NeighborContinentTargets: true,
	}
}

// mustNew builds a campaign from a config the test knows is valid.
func mustNew(t *testing.T, cfg Config) *Campaign {
	t.Helper()
	c, err := New(testSim, testSC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCampaignCollects(t *testing.T) {
	camp := mustNew(t, smallConfig())
	store, st, err := camp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	np, nt := store.Len()
	if np == 0 || nt == 0 {
		t.Fatalf("no data collected: %d pings, %d traces", np, nt)
	}
	if st.Pings != np || st.Traceroutes != nt {
		t.Errorf("stats disagree with store: %+v vs (%d,%d)", st, np, nt)
	}
	// Both protocols → pings are an even count, half TCP half ICMP.
	tcp, icmp := dataset.TCP, dataset.ICMP
	nTCP := len(store.FilterPings(dataset.PingFilter{Protocol: &tcp}))
	nICMP := len(store.FilterPings(dataset.PingFilter{Protocol: &icmp}))
	if nTCP != nICMP || nTCP == 0 {
		t.Errorf("protocol split = %d TCP / %d ICMP", nTCP, nICMP)
	}
	// Two traceroutes per task (the 7M-vs-3.8M dataset ratio).
	if nt != nTCP*2 {
		t.Errorf("traceroutes = %d, want %d (2 per task)", nt, nTCP*2)
	}
	if st.CountriesCycled < 100 {
		t.Errorf("countries cycled = %d", st.CountriesCycled)
	}
	if st.Requests != nTCP {
		t.Errorf("requests = %d, want one per task (%d)", st.Requests, nTCP)
	}
}

func TestCampaignDeterministic(t *testing.T) {
	c1 := mustNew(t, smallConfig())
	s1, st1, err := c1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c2 := mustNew(t, smallConfig())
	s2, st2, err := c2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st1.Requests != st2.Requests || st1.Pings != st2.Pings {
		t.Fatalf("stats differ: %+v vs %+v", st1, st2)
	}
	// Collection order varies across workers, so compare aggregates.
	n1, _ := s1.Len()
	n2, _ := s2.Len()
	if n1 != n2 {
		t.Fatalf("ping counts differ: %d vs %d", n1, n2)
	}
	// Collection order (and hence float summation order) varies across
	// workers; compare the sorted sample multisets instead.
	r1 := append([]float64(nil), rtts(s1)...)
	r2 := append([]float64(nil), rtts(s2)...)
	sort.Float64s(r1)
	sort.Float64s(r2)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("RTT multiset differs at %d: %v vs %v", i, r1[i], r2[i])
		}
	}
}

func TestMinProbeGate(t *testing.T) {
	cfg := smallConfig()
	cfg.MinProbesPerCountry = 1 << 30 // nothing qualifies
	store, st, err := mustNew(t, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if np, _ := store.Len(); np != 0 || st.CountriesCycled != 0 {
		t.Errorf("gate failed: %d pings, %d countries", np, st.CountriesCycled)
	}
}

func TestNeighborContinentTargets(t *testing.T) {
	cfg := smallConfig()
	cfg.TargetsPerProbe = 200 // take the whole pool
	store, _, err := mustNew(t, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// African probes must have measured EU and NA datacenters.
	af := store.FilterPings(dataset.PingFilter{VPContinent: geo.AF})
	targets := map[geo.Continent]bool{}
	for i := range af {
		targets[af[i].Target.Continent] = true
	}
	for _, want := range []geo.Continent{geo.AF, geo.EU, geo.NA} {
		if !targets[want] {
			t.Errorf("African probes never targeted %v", want)
		}
	}
	// European probes must stay in-continent.
	eu := store.FilterPings(dataset.PingFilter{VPContinent: geo.EU})
	for i := range eu {
		if eu[i].Target.Continent != geo.EU {
			t.Fatalf("EU probe measured %v", eu[i].Target.Continent)
		}
	}
	// Disabled → Africa stays in-continent.
	cfg.NeighborContinentTargets = false
	store2, _, err := mustNew(t, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range store2.FilterPings(dataset.PingFilter{VPContinent: geo.AF}) {
		if r.Target.Continent != geo.AF {
			t.Fatalf("with neighbours disabled, AF probe measured %v", r.Target.Continent)
		}
	}
}

func TestVirtualClockPacing(t *testing.T) {
	cfg := smallConfig()
	cfg.RequestsPerMinute = 1
	_, st, err := mustNew(t, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := time.Duration(st.Requests) * time.Minute
	if st.VirtualDuration != want {
		t.Errorf("virtual duration = %v, want %v at 1 req/min", st.VirtualDuration, want)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	store, _, err := mustNew(t, smallConfig()).Run(ctx)
	if err == nil {
		t.Fatal("cancelled campaign should report an error")
	}
	if np, _ := store.Len(); np > 100 {
		t.Errorf("cancelled campaign still collected %d pings", np)
	}
}

// TestCancellationMidRunPartialStore interrupts a campaign partway
// through and checks the three contract points: the error wraps
// ctx.Err(), the records collected before the cut survive in the store,
// and every worker goroutine is joined (no leak).
func TestCancellationMidRunPartialStore(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cfg := smallConfig()
	cfg.Cycles = 4
	// Cancel when the sweep first selects targets for cycle 2 of 4:
	// mid-run, not at the start and not at the end. RegionAvailable runs
	// on the dispatch goroutine, so the cut point is deterministic.
	cfg.RegionAvailable = func(_ string, cycle int) bool {
		if cycle == 2 {
			cancel()
		}
		return true
	}
	store, st, err := mustNew(t, cfg).Run(ctx)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a context.Canceled wrap", err)
	}
	if np, _ := store.Len(); np == 0 {
		t.Error("mid-run cancellation should return the partial dataset, store is empty")
	}
	// Workers and the collector are joined before Run returns, so
	// everything collected up to the cut must be intact and queryable.
	if len(store.RTTs(dataset.PingFilter{})) == 0 {
		t.Error("partial store has no queryable RTTs")
	}
	// Cycles 0 and 1 completed; cycle 2 was cut before its poll closed.
	if len(st.Discovery) != 2 {
		t.Errorf("discovery snapshots = %d, want 2 (cut inside cycle 2)", len(st.Discovery))
	}
	// All workers and the collector must be joined: give the runtime a
	// moment, then compare goroutine counts.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutine leak: %d before, %d after cancelled run", before, after)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative cycles", func(c *Config) { c.Cycles = -1 }},
		{"negative probes per country", func(c *Config) { c.ProbesPerCountry = -5 }},
		{"negative targets", func(c *Config) { c.TargetsPerProbe = -1 }},
		{"negative min probes", func(c *Config) { c.MinProbesPerCountry = -1 }},
		{"negative rate", func(c *Config) { c.RequestsPerMinute = -3 }},
		{"NaN rate", func(c *Config) { c.RequestsPerMinute = math.NaN() }},
		{"infinite rate", func(c *Config) { c.RequestsPerMinute = math.Inf(1) }},
		{"negative workers", func(c *Config) { c.Workers = -2 }},
		{"bad flag", func(c *Config) { c.BothPingProtocols = Flag(7) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate accepted %s", tc.name)
			}
			if _, err := New(testSim, testSC, cfg); err == nil {
				t.Errorf("New accepted %s", tc.name)
			}
		})
	}
	// The zero config is valid.
	for _, cfg := range []Config{{}, smallConfig()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate rejected valid config: %v", err)
		}
	}
}

// TestFlagTriState pins the unset-vs-false distinction: an untouched
// config gets both protocols (the paper ran both), FlagOff really turns
// ICMP off.
func TestFlagTriState(t *testing.T) {
	if c := mustNew(t, Config{}); c.Cfg.BothPingProtocols != FlagOn {
		t.Errorf("unset flag resolved to %v, want FlagOn", c.Cfg.BothPingProtocols)
	}
	if c := mustNew(t, Config{BothPingProtocols: FlagOff}); c.Cfg.BothPingProtocols != FlagOff {
		t.Errorf("explicit FlagOff overridden to %v", c.Cfg.BothPingProtocols)
	}
	cfg := smallConfig()
	cfg.Traceroutes = false
	cfg.BothPingProtocols = FlagOff
	store, _, err := mustNew(t, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	icmp := dataset.ICMP
	if n := len(store.FilterPings(dataset.PingFilter{Protocol: &icmp})); n != 0 {
		t.Errorf("FlagOff still produced %d ICMP pings", n)
	}
}

func TestConfidentCountries(t *testing.T) {
	st := Stats{SamplesPerCountry: map[string]int{"DE": 5000, "FR": 100, "JP": 2401}}
	got := st.ConfidentCountries()
	want := map[string]bool{"DE": true, "JP": true}
	if len(got) != 2 {
		t.Fatalf("confident countries = %v", got)
	}
	for _, c := range got {
		if !want[c] {
			t.Errorf("unexpected confident country %s", c)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := mustNew(t, Config{})
	if c.Cfg.Cycles == 0 || c.Cfg.Workers == 0 || c.Cfg.RequestsPerMinute == 0 ||
		c.Cfg.TargetsPerProbe == 0 || c.Cfg.MinProbesPerCountry == 0 {
		t.Errorf("defaults not applied: %+v", c.Cfg)
	}
	if c.Cfg.BothPingProtocols != FlagOn {
		t.Errorf("BothPingProtocols default = %v, want FlagOn", c.Cfg.BothPingProtocols)
	}
	// ProbesPerCountry deliberately defaults to zero: no cap, so volume
	// follows probe density as on the real platform.
	if c.Cfg.ProbesPerCountry != 0 {
		t.Errorf("ProbesPerCountry default = %d, want uncapped", c.Cfg.ProbesPerCountry)
	}
}

func TestProbeCapRespected(t *testing.T) {
	cfg := smallConfig()
	cfg.ProbesPerCountry = 1
	cfg.Traceroutes = false
	cfg.BothPingProtocols = FlagOff
	store, _, err := mustNew(t, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	perCountry := map[string]map[string]bool{}
	for i := range store.Pings {
		r := &store.Pings[i]
		if perCountry[r.VP.Country] == nil {
			perCountry[r.VP.Country] = map[string]bool{}
		}
		perCountry[r.VP.Country][r.VP.ProbeID] = true
	}
	for cc, ps := range perCountry {
		if len(ps) > cfg.Cycles*cfg.ProbesPerCountry {
			t.Errorf("%s: %d probes used, cap is %d per cycle", cc, len(ps), cfg.ProbesPerCountry)
		}
	}
}

func TestNearestRegionsAlwaysMeasured(t *testing.T) {
	cfg := smallConfig()
	cfg.Traceroutes = false
	cfg.BothPingProtocols = FlagOff
	cfg.TargetsPerProbe = 4
	store, _, err := mustNew(t, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Every German probe's sample set must include the geographically
	// closest region (a Frankfurt DC).
	byProbe := map[string]map[string]bool{}
	for i := range store.Pings {
		r := &store.Pings[i]
		if r.VP.Country != "DE" {
			continue
		}
		if byProbe[r.VP.ProbeID] == nil {
			byProbe[r.VP.ProbeID] = map[string]bool{}
		}
		byProbe[r.VP.ProbeID][r.Target.Region] = true
	}
	if len(byProbe) == 0 {
		t.Skip("no German probes selected")
	}
	for probe, regions := range byProbe {
		sawNear := false
		for id := range regions {
			for _, near := range []string{"frankfurt", "berlin"} {
				if len(id) > len(near) && id[len(id)-len(near):] == near {
					sawNear = true
				}
			}
		}
		if !sawNear {
			t.Errorf("probe %s never measured a nearby German region: %v", probe, regions)
		}
	}
}

func rtts(s *dataset.Store) []float64 {
	out := make([]float64, 0, len(s.Pings))
	for i := range s.Pings {
		out = append(out, s.Pings[i].RTTms)
	}
	return out
}

func TestDiscoveryAccounting(t *testing.T) {
	cfg := smallConfig()
	cfg.Cycles = 4
	cfg.ProbesPerCountry = 0 // uncapped: discovery reflects raw availability
	cfg.Traceroutes = false
	cfg.BothPingProtocols = FlagOff
	_, st, err := mustNew(t, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Discovery) != cfg.Cycles {
		t.Fatalf("discovery snapshots = %d, want %d", len(st.Discovery), cfg.Cycles)
	}
	// §3.2: roughly a quarter of the fleet answers any given poll.
	connected := 0
	for _, d := range st.Discovery {
		connected += d.Connected
	}
	share := float64(connected) / float64(len(st.Discovery)) / float64(testSC.Len())
	if share < 0.18 || share > 0.33 {
		t.Errorf("connected share = %.2f, want ≈ 0.25 (29K of 115K)", share)
	}
	for i, d := range st.Discovery {
		if d.Cycle != i || d.Connected == 0 {
			t.Errorf("snapshot %d malformed: %+v", i, d)
		}
	}
	// §3.3 transience: far more probes appear at least once than appear
	// every cycle.
	if st.EverConnected == 0 {
		t.Fatal("no probes ever connected")
	}
	if st.PersistentProbes*5 > st.EverConnected {
		t.Errorf("persistent %d of %d ever-connected — Android probes should be transient",
			st.PersistentProbes, st.EverConnected)
	}
	if st.PersistentProbes == 0 {
		t.Error("some probes should persist across all cycles")
	}
}

type failingSink struct{ after int }

func (f *failingSink) Ping(dataset.PingRecord) error {
	f.after--
	if f.after < 0 {
		return errSinkBoom
	}
	return nil
}
func (f *failingSink) Trace(dataset.TracerouteRecord) error { return nil }
func (f *failingSink) Close() error                         { return nil }

var errSinkBoom = errors.New("boom")

func TestStreamingSink(t *testing.T) {
	cfg := smallConfig()
	cfg.BothPingProtocols = FlagOff
	var pings, traces bytes.Buffer
	cfg.Sinks = []dataset.Sink{dataset.NewFileSink(&pings, &traces)}
	store, st, err := mustNew(t, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The store stays empty; everything went to the sink.
	if np, nt := store.Len(); np != 0 || nt != 0 {
		t.Errorf("store should be empty with a sink: %d/%d", np, nt)
	}
	gotPings, err := dataset.ReadPingsCSV(&pings)
	if err != nil {
		t.Fatal(err)
	}
	gotTraces, err := dataset.ReadTracesJSONL(&traces)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPings) != st.Pings || len(gotTraces) != st.Traceroutes {
		t.Errorf("streamed %d/%d records, stats say %d/%d",
			len(gotPings), len(gotTraces), st.Pings, st.Traceroutes)
	}
	if st.Pings == 0 {
		t.Error("nothing streamed")
	}
}

func TestSinkErrorSurfaces(t *testing.T) {
	cfg := smallConfig()
	cfg.Sinks = []dataset.Sink{&failingSink{after: 3}}
	_, _, err := mustNew(t, cfg).Run(context.Background())
	if err == nil || !errors.Is(err, errSinkBoom) {
		t.Errorf("sink failure not surfaced: %v", err)
	}
}

func TestEmptySinkStreamsParse(t *testing.T) {
	// A campaign that collects nothing must still emit parseable files.
	var pings, traces bytes.Buffer
	sink := dataset.NewFileSink(&pings, &traces)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := dataset.ReadPingsCSV(&pings); err != nil || len(got) != 0 {
		t.Errorf("empty ping stream: %v, %d records", err, len(got))
	}
	if got, err := dataset.ReadTracesJSONL(&traces); err != nil || len(got) != 0 {
		t.Errorf("empty trace stream: %v, %d records", err, len(got))
	}
}

func TestVirtualClockUnits(t *testing.T) {
	// One request per minute: time is linear in requests.
	v := newVirtualClock(1)
	for i := 0; i < 10; i++ {
		v.admit()
	}
	if v.requests != 10 || v.elapsed() != 10*time.Minute {
		t.Errorf("clock = %d requests, %v", v.requests, v.elapsed())
	}
}
