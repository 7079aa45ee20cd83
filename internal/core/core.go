// Package core orchestrates the full reproduction of the study: it
// synthesizes the Internet, generates the Speedchecker and RIPE Atlas
// vantage-point fleets, runs both measurement campaigns, feeds the
// traceroutes through the processing pipeline, computes every table and
// figure of the paper, and renders the experiment report.
//
// This is the system a reader of the paper would run end-to-end: the
// per-figure analyses live in internal/analysis, the substrates below;
// core is the composition.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/probes"
	"repro/internal/report"
	"repro/internal/world"
)

// Config sizes a study run.
type Config struct {
	// Seed drives world synthesis, fleet generation and campaign
	// sampling.
	Seed int64
	// Scale multiplies the paper's fleet sizes (default 0.05; 1.0 is
	// the full 115K+8.5K deployment).
	Scale float64
	// Cycles is the number of country sweeps (default 4; the paper's
	// six months ≈ 12).
	Cycles int
	// TargetsPerProbe is the per-cycle region budget per probe
	// (default 8).
	TargetsPerProbe int
	// Workers is the measurement concurrency (0 = GOMAXPROCS).
	Workers int
	// FaultProfile names a fault-injection profile ("flaky-wireless",
	// "quota-storm", "partition"; empty or "none" runs fault-free). The
	// campaign engine's retries, circuit breaker and spill handling keep
	// the study completing under every built-in profile.
	FaultProfile string
	// Scenario names a longitudinal event scenario ("cable-cut",
	// "region-launch"; empty or "none" runs event-free). Scenarios fire
	// at the campaign midpoint and are seeded into the simulator and the
	// campaign engine, so the same seed replays the same event — and the
	// /v1/changepoint detector can prove it happened.
	Scenario string
	// DiurnalAmplitude modulates probe availability over the virtual day
	// (0 = off; see measure.Config.DiurnalAmplitude).
	DiurnalAmplitude float64
	// CycleQuota bounds measurement requests per cycle (0 = unlimited;
	// see measure.Config.CycleQuota).
	CycleQuota int
	// Obs registers every layer's instruments — campaign engine, fault
	// injections, fan-out bus, store feed — on one registry, so a single
	// /v1/metricsz scrape covers the whole spine. Nil runs
	// uninstrumented. Tracing rides the ctx handed to RunCampaigns
	// instead (see obs.ContextWithTracer).
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 {
		c.Scale = 0.05
	}
	if c.Cycles == 0 {
		c.Cycles = 4
	}
	if c.TargetsPerProbe == 0 {
		c.TargetsPerProbe = 8
	}
	return c
}

const (
	// probeCap bounds the connected Speedchecker probes used per country
	// per cycle; 40 keeps dense countries tractable.
	probeCap = 40
	// minProbes gates countries into the campaign: 2 at the scales a
	// study runs at, where the paper used 100 at full scale.
	minProbes = 2
)

// Study is a completed end-to-end run.
type Study struct {
	Config     Config
	World      *world.World
	Sim        *netsim.Simulator
	SC         *probes.Fleet
	Atlas      *probes.Fleet
	Store      *dataset.Store
	Processed  []pipeline.Processed
	SCStats    measure.Stats
	AtlasStats measure.Stats
}

// FromStore rebuilds a Study around an existing dataset — the
// re-analysis path for data previously written by ExportDataset (or
// converted from Atlas format). The world and fleets are regenerated
// from the seed, so it must match the seed the dataset was collected
// under for IP→ASN resolution to line up.
func FromStore(cfg Config, store *dataset.Store) (*Study, error) {
	cfg = cfg.withDefaults()
	w, err := world.Build(world.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("core: building world: %w", err)
	}
	return &Study{
		Config: cfg, World: w, Sim: netsim.New(w),
		SC:        probes.GenerateSpeedchecker(w, probes.Config{Seed: cfg.Seed, Scale: cfg.Scale}),
		Atlas:     probes.GenerateAtlas(w, probes.Config{Seed: cfg.Seed, Scale: 1}),
		Store:     store,
		Processed: pipeline.NewProcessor(w).ProcessAll(store),
	}, nil
}

// Setup is a prepared-but-not-yet-run study: the synthesized world,
// both simulators, the fault plan and both fleets. Prepare builds it;
// RunCampaigns executes the campaigns — either materializing (no
// sinks), or streaming every record into caller-supplied sinks so a
// columnar store or an export file can be built while the campaign
// runs, under bounded memory.
type Setup struct {
	Config Config
	World  *world.World
	// Sim carries the fault injector (when the profile asks for one)
	// and drives the Speedchecker campaign.
	Sim *netsim.Simulator
	// AtlasSim is fault-free: Atlas is wired, and the profiles model
	// the Speedchecker side only. It aliases Sim when no plan is set.
	AtlasSim *netsim.Simulator
	Plan     *faults.Plan
	// Scenario is the resolved longitudinal event scenario (nil when
	// none): its Events ride both simulators, and its RegionAvailable
	// gate is handed to the campaign engine's target selection.
	Scenario *netsim.Scenario
	SC       *probes.Fleet
	Atlas    *probes.Fleet
}

// Prepare synthesizes the world, resolves the fault profile and
// generates both vantage-point fleets, without running anything.
func Prepare(cfg Config) (*Setup, error) {
	cfg = cfg.withDefaults()
	w, err := world.Build(world.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("core: building world: %w", err)
	}
	sim := netsim.New(w)
	plan, err := faults.Profile(cfg.FaultProfile, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	atSim := sim
	if plan != nil {
		sim.Faults = plan
		// A fresh simulator strips the injector; the RTT model itself is
		// a pure function of the world, so the values are unchanged.
		atSim = netsim.New(w)
	}
	var regionIDs []string
	for _, r := range w.Inventory.Regions() {
		regionIDs = append(regionIDs, r.ID)
	}
	scn, err := netsim.ScenarioProfile(cfg.Scenario, cfg.Cycles, regionIDs)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if scn != nil {
		// Both simulators carry the event plan: the additive RTT
		// penalties leave the RNG stream untouched, so unaffected
		// measurements stay bit-identical to a scenario-free run.
		sim.Events = scn.Events
		atSim.Events = scn.Events
	}
	return &Setup{
		Config: cfg, World: w, Sim: sim, AtlasSim: atSim, Plan: plan, Scenario: scn,
		SC:    probes.GenerateSpeedchecker(w, probes.Config{Seed: cfg.Seed, Scale: cfg.Scale}),
		Atlas: probes.GenerateAtlas(w, probes.Config{Seed: cfg.Seed, Scale: 1}),
	}, nil
}

// RunCampaigns executes the Speedchecker and Atlas campaigns. With no
// sinks, both campaigns materialize and the returned store holds every
// record — the legacy batch path. With sinks, every record streams
// through a bounded fan-out bus into each sink instead, both campaigns
// share the one sink set (so a store.Feed sees both platforms), and
// the returned store holds only records spilled after a sink
// degradation. Sinks must tolerate repeated Close: each campaign
// closes (flushes) them when it finishes.
//
// A sink degradation does not abort the run: the campaigns complete,
// the undelivered remainder lands in the returned store (check
// Stats.SinkDegraded / Stats.Spilled), and the error reports the first
// sink failure. The store is nil only when a campaign itself fails.
func (s *Setup) RunCampaigns(ctx context.Context, sinks ...dataset.Sink) (*dataset.Store, measure.Stats, measure.Stats, error) {
	return s.RunCampaignsOver(ctx, nil, sinks...)
}

// RunCampaignsOver is RunCampaigns restricted to a set of country codes
// — the shard unit of the distributed campaign plane (internal/
// cluster). An empty set means the full sweep. Because probe and target
// selection, retry jitter and every record value are pure functions of
// (probe, country, cycle), a fault-free restricted run emits exactly
// the records the full sweep emits for those countries, in the same
// per-probe order; fault profiles couple countries through the shared
// virtual clock and the per-cycle quota (Config.CycleQuota) through its
// shared budget, so sharded runs should stay fault- and quota-free (the
// coordinator's default).
func (s *Setup) RunCampaignsOver(ctx context.Context, countries []string, sinks ...dataset.Sink) (*dataset.Store, measure.Stats, measure.Stats, error) {
	return s.RunCampaignsWindow(ctx, countries, 0, 0, sinks...)
}

// RunCampaignsWindow is RunCampaignsOver further restricted to the
// half-open cycle window [fromCycle, toCycle) on the campaign time axis
// (zero bounds are unconstrained) — the unit the cluster plane's
// window-scoped leases replay. The Atlas campaign runs a single cycle
// (cycle 0), so it only executes when the window contains cycle 0.
func (s *Setup) RunCampaignsWindow(ctx context.Context, countries []string, fromCycle, toCycle int, sinks ...dataset.Sink) (*dataset.Store, measure.Stats, measure.Stats, error) {
	cfg := s.Config
	scCfg := measure.Config{
		Seed:                     cfg.Seed,
		Cycles:                   cfg.Cycles,
		ProbesPerCountry:         probeCap,
		TargetsPerProbe:          cfg.TargetsPerProbe,
		MinProbesPerCountry:      minProbes,
		Countries:                countries,
		FromCycle:                fromCycle,
		ToCycle:                  toCycle,
		DiurnalAmplitude:         cfg.DiurnalAmplitude,
		CycleQuota:               cfg.CycleQuota,
		RequestsPerMinute:        1000, // virtual-clock pacing only
		Workers:                  cfg.Workers,
		BothPingProtocols:        measure.FlagOn,
		Traceroutes:              true,
		NeighborContinentTargets: true,
		Sinks:                    sinks,
		Obs:                      cfg.Obs,
	}
	if s.Scenario != nil {
		scCfg.RegionAvailable = s.Scenario.RegionAvailable
	}
	if s.Plan != nil {
		// The control-plane injector is instrumented
		// (faults_injected_total by profile and kind); the simulator keeps
		// the bare plan so data-plane consultations of the same trace
		// draws are not double-counted.
		scCfg.Faults = faults.Instrument(s.Plan, s.Plan.Name, cfg.Obs)
	}
	scCampaign, err := measure.New(s.Sim, s.SC, scCfg)
	if err != nil {
		return nil, measure.Stats{}, measure.Stats{}, fmt.Errorf("core: speedchecker campaign: %w", err)
	}
	store, scStats, scErr := scCampaign.Run(ctx)
	if scErr != nil && !scStats.SinkDegraded {
		return nil, scStats, measure.Stats{}, fmt.Errorf("core: speedchecker campaign: %w", scErr)
	}
	// Atlas probes are always connected; a single uncapped cycle keeps
	// the platform's geographic proportions intact.
	atCfg := scCfg
	atCfg.Cycles = 1
	atCfg.ProbesPerCountry = 0
	atCfg.Faults = nil
	atCampaign, err := measure.New(s.AtlasSim, s.Atlas, atCfg)
	if err != nil {
		return nil, scStats, measure.Stats{}, fmt.Errorf("core: atlas campaign: %w", err)
	}
	atStore, atStats, atErr := atCampaign.Run(ctx)
	if atErr != nil && !atStats.SinkDegraded {
		return nil, scStats, atStats, fmt.Errorf("core: atlas campaign: %w", atErr)
	}
	store.Merge(atStore)
	var err2 error
	if scErr != nil || atErr != nil {
		err2 = fmt.Errorf("core: %w", errors.Join(scErr, atErr))
	}
	return store, scStats, atStats, err2
}

// Run executes the whole study, materializing the full dataset. It
// respects ctx cancellation.
func Run(ctx context.Context, cfg Config) (*Study, error) {
	setup, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	store, scStats, atStats, err := setup.RunCampaigns(ctx)
	if err != nil {
		return nil, err
	}
	return &Study{
		Config: setup.Config, World: setup.World, Sim: setup.Sim,
		SC: setup.SC, Atlas: setup.Atlas,
		Store:     store,
		Processed: pipeline.NewProcessor(setup.World).ProcessAll(store),
		SCStats:   scStats, AtlasStats: atStats,
	}, nil
}

// Results bundles every analysis of the paper's evaluation.
type Results struct {
	SCDensity    analysis.FleetDensity
	AtlasDensity analysis.FleetDensity
	SCCloseness  []analysis.Closeness // Fig 14 (A.1)

	LatencyMap []analysis.CountryLatency // Fig 3
	Thresholds analysis.ThresholdSummary // §4.1 takeaway

	ContinentCDFs []analysis.ContinentDistribution // Fig 4
	PlatformDiffs []analysis.PlatformDiff          // Fig 5
	MatchedDiffs  []analysis.MatchedDiff           // Fig 16
	Protocols     []analysis.ProtocolComparison    // Fig 15

	AfricaBoxes       []analysis.InterContinentBox // Fig 6a
	SouthAmericaBoxes []analysis.InterContinentBox // Fig 6b

	LastMileAll     []analysis.LastMileImpact // Fig 7
	LastMileGlobal  []analysis.LastMileImpact // Fig 7 "Global"
	LastMileNearest []analysis.LastMileImpact // Fig 19
	CvByContinent   []analysis.CvGroup        // Fig 8
	CvByCountry     []analysis.CvGroup        // Fig 9

	Interconnections []analysis.InterconnectShare // Fig 10
	Pervasiveness    []analysis.PervasivenessRow  // Fig 11

	GermanyUK    CaseStudy // Fig 12
	JapanIndia   CaseStudy // Fig 13
	UkraineUK    CaseStudy // Fig 17
	BahrainIndia CaseStudy // Fig 18

	ProviderConsistency []analysis.ProviderConsistency // §8 conclusion
	Flattening          []analysis.Flattening          // §2.1 flat-Internet view
	EdgeScenarios       []edge.Scenario                // §7 what-if
	EdgeVerdicts        []edge.Verdict
	FiveGToday          []edge.FiveG // §7: measured early-5G last mile (×0.5)
	FiveGPromised       []edge.FiveG // §7: the promised 1 ms radio (×0.05)
}

// CaseStudy is one §6.2 / A.4 country-pair study.
type CaseStudy struct {
	Matrix  analysis.PeeringMatrix
	Latency []analysis.PeeringLatency
}

// AnalyzeConfig tunes sample floors for the analyses.
type AnalyzeConfig struct {
	// MinMapSamples is the per-country floor for the Figure 3 map
	// (default 10; the paper used ≥100 probes per country).
	MinMapSamples int
	// MinCvSamples is the per-probe floor for Figures 8/9 (default 5;
	// the paper used 10).
	MinCvSamples int
	// MinCaseSamples is the per-provider floor for case-study latency
	// boxes (default 5; the paper used 100).
	MinCaseSamples int
	// MinMatchedGroups gates continents in Figure 16 (default 3).
	MinMatchedGroups int
}

func (c AnalyzeConfig) withDefaults() AnalyzeConfig {
	if c.MinMapSamples == 0 {
		c.MinMapSamples = 10
	}
	if c.MinCvSamples == 0 {
		c.MinCvSamples = 5
	}
	if c.MinCaseSamples == 0 {
		c.MinCaseSamples = 5
	}
	if c.MinMatchedGroups == 0 {
		c.MinMatchedGroups = 3
	}
	return c
}

// Analyze computes every figure and table from the collected dataset.
// All ping-derived figures draw from one single-pass collection over
// the store (analysis.CollectStore) instead of seven independent
// full scans; the results are bit-identical to the batch entry points.
func (s *Study) Analyze(cfg AnalyzeConfig) Results {
	cfg = cfg.withDefaults()
	caseStudy := func(vp, dc string) CaseStudy {
		return CaseStudy{
			Matrix:  analysis.CaseStudyMatrix(s.Processed, s.World.Registry, vp, dc, 5),
			Latency: analysis.CaseStudyLatency(s.Processed, vp, dc, cfg.MinCaseSamples),
		}
	}
	agg := analysis.CollectStore(s.Store)
	lm := agg.LatencyMap(cfg.MinMapSamples)
	scenarios := edge.Evaluate(s.Processed, 4)
	return Results{
		SCDensity:    analysis.Density(s.SC),
		AtlasDensity: analysis.Density(s.Atlas),
		SCCloseness:  analysis.FleetCloseness(s.SC, 10),

		LatencyMap: lm,
		Thresholds: analysis.Thresholds(lm),

		ContinentCDFs: agg.ContinentDistributions("speedchecker"),
		PlatformDiffs: agg.PlatformComparison(),
		MatchedDiffs:  agg.MatchedComparison(cfg.MinMatchedGroups),
		Protocols:     agg.ProtocolComparisons(),

		AfricaBoxes: agg.InterContinental(
			[]string{"DZ", "EG", "ET", "KE", "MA", "SN", "TN", "ZA"},
			[]geo.Continent{geo.EU, geo.NA, geo.AF}),
		SouthAmericaBoxes: agg.InterContinental(
			[]string{"AR", "BO", "BR", "CL", "CO", "EC", "PE", "VE"},
			[]geo.Continent{geo.NA, geo.SA}),

		LastMileAll:     analysis.LastMile(s.Processed, false),
		LastMileGlobal:  analysis.GlobalLastMile(s.Processed),
		LastMileNearest: analysis.LastMile(s.Processed, true),
		CvByContinent:   analysis.LastMileCvByContinent(s.Processed, cfg.MinCvSamples),
		CvByCountry:     analysis.LastMileCvByCountry(s.Processed, analysis.Fig9Countries, cfg.MinCvSamples),

		Interconnections: analysis.Interconnections(s.Processed),
		Pervasiveness:    analysis.Pervasiveness(s.Processed),

		GermanyUK:    caseStudy("DE", "GB"),
		JapanIndia:   caseStudy("JP", "IN"),
		UkraineUK:    caseStudy("UA", "GB"),
		BahrainIndia: caseStudy("BH", "IN"),

		ProviderConsistency: agg.ProviderComparison(cfg.MinCaseSamples),
		Flattening:          analysis.PathFlattening(s.Processed),
		EdgeScenarios:       scenarios,
		EdgeVerdicts:        edge.Verdicts(scenarios),
		FiveGToday:          edge.Evaluate5G(s.Processed, 0.5),
		FiveGPromised:       edge.Evaluate5G(s.Processed, 0.05),
	}
}

// WriteReport renders the full experiment report: every table and
// figure of the paper, regenerated from this run.
func (s *Study) WriteReport(w io.Writer, r Results) {
	report.Rule(w, "Setup (§3)")
	report.Table1(w, s.World.Inventory)
	report.Density(w, r.SCDensity, 10)
	report.Density(w, r.AtlasDensity, 10)
	report.CampaignStats(w, "Speedchecker campaign", s.SCStats)
	report.CampaignStats(w, "RIPE Atlas campaign", s.AtlasStats)
	report.DataQuality(w, "Speedchecker", s.SCStats)
	np, nt := s.Store.Len()
	fmt.Fprintf(w, "dataset: %d pings, %d traceroutes\n", np, nt)
	cov := s.World.UserCoverageOf(s.SC.ISPNumbers())
	atCov := s.World.UserCoverageOf(s.Atlas.ISPNumbers())
	fmt.Fprintf(w, "user-population coverage: speedchecker %.1f%%, atlas %.1f%%\n", 100*cov, 100*atCov)
	dcs := map[geo.Continent]int{}
	for _, region := range s.World.Inventory.Regions() {
		dcs[region.Continent]++
	}
	report.GeoDensities(w, analysis.GeoDensities(r.SCDensity, r.AtlasDensity, dcs, s.Config.Scale))

	report.Rule(w, "Cloud access latency (§4)")
	report.LatencyMap(w, r.LatencyMap)
	report.ContinentCDFs(w, r.ContinentCDFs, 8)
	report.PlatformDiffs(w, r.PlatformDiffs)
	report.InterContinental(w, r.AfricaBoxes)
	report.InterContinental(w, r.SouthAmericaBoxes)

	report.Rule(w, "Wireless last mile (§5)")
	report.LastMile(w, r.LastMileAll, r.LastMileGlobal, "Figure 7: last-mile share and absolute latency")
	report.CvGroups(w, r.CvByContinent, "Figure 8: last-mile Cv per continent")
	report.CvGroups(w, r.CvByCountry, "Figure 9: last-mile Cv in representative countries")

	report.ProviderConsistency(w, r.ProviderConsistency)

	report.Rule(w, "Cloud & ISP interconnections (§6)")
	report.Interconnections(w, r.Interconnections)
	report.Pervasiveness(w, r.Pervasiveness)
	report.Flattening(w, r.Flattening)
	report.CaseStudy(w, r.GermanyUK.Matrix, r.GermanyUK.Latency, "Figure 12 (DE→UK)")
	report.CaseStudy(w, r.JapanIndia.Matrix, r.JapanIndia.Latency, "Figure 13 (JP→IN)")

	report.Rule(w, "Edge computing discussion (§7)")
	report.EdgeScenarios(w, r.EdgeScenarios, r.EdgeVerdicts)
	report.FiveG(w, r.FiveGToday, r.FiveGPromised)

	report.Rule(w, "Appendices")
	report.Closeness(w, r.SCCloseness, 12)
	report.Protocols(w, r.Protocols)
	report.Matched(w, r.MatchedDiffs)
	report.CaseStudy(w, r.UkraineUK.Matrix, r.UkraineUK.Latency, "Figure 17 (UA→UK)")
	report.CaseStudy(w, r.BahrainIndia.Matrix, r.BahrainIndia.Latency, "Figure 18 (BH→IN)")
	report.LastMile(w, r.LastMileNearest, nil, "Figure 19: last-mile share towards the closest datacenter")
}

// ExportDataset writes the collected records in the published dataset's
// formats: pings as CSV, traceroutes as JSONL.
func (s *Study) ExportDataset(pings, traces io.Writer) error {
	if err := dataset.WritePingsCSV(pings, s.Store.Pings); err != nil {
		return fmt.Errorf("core: exporting pings: %w", err)
	}
	if err := dataset.WriteTracesJSONL(traces, s.Store.Traces); err != nil {
		return fmt.Errorf("core: exporting traceroutes: %w", err)
	}
	return nil
}
