// Package cloudy reproduces "Cloudy with a Chance of Short RTTs:
// Analyzing Cloud Connectivity in the Internet" (IMC 2021) as a
// runnable system: a synthetic-Internet substrate, the Speedchecker and
// RIPE Atlas vantage-point fleets, the six-month measurement campaign,
// the traceroute-processing pipeline, and every analysis behind the
// paper's tables and figures.
//
// The quickest way in is the one-call study:
//
//	study, err := cloudy.RunStudy(ctx, cloudy.StudyConfig{Seed: 1, Scale: 0.05})
//	results := study.Analyze(cloudy.AnalyzeConfig{})
//	study.WriteReport(os.Stdout, results)
//
// For finer control, build the pieces separately:
//
//	w, _ := cloudy.NewWorld(1)                   // synthesize the Internet
//	sim := cloudy.NewSimulator(w)                // data-plane emulator
//	fleet := cloudy.SpeedcheckerFleet(w, cloudy.FleetConfig{Seed: 1, Scale: 0.1})
//	campaign, _ := cloudy.NewCampaign(sim, fleet, cloudy.CampaignConfig{})
//	store, stats, _ := campaign.Run(ctx)
//	processed := cloudy.NewProcessor(w).ProcessAll(store)
//
// Everything is deterministic under a seed; see DESIGN.md for the
// system inventory and EXPERIMENTS.md for paper-versus-measured results.
package cloudy

import (
	"context"

	"repro/internal/analysis"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/edge"
	"repro/internal/faults"
	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/probes"
	"repro/internal/world"
)

// World is the synthetic Internet: AS ecosystem, exchanges, cloud
// providers and their interconnection decisions.
type World = world.World

// WorldConfig parameterizes world synthesis.
type WorldConfig = world.Config

// NewWorld synthesizes a world from a seed with default parameters.
func NewWorld(seed int64) (*World, error) {
	return world.Build(world.Config{Seed: seed})
}

// Simulator emulates pings and traceroutes over a world.
type Simulator = netsim.Simulator

// NewSimulator returns a paper-calibrated simulator.
func NewSimulator(w *World) *Simulator { return netsim.New(w) }

// Fleet is a set of vantage points; Probe is one of them.
type (
	Fleet       = probes.Fleet
	Probe       = probes.Probe
	FleetConfig = probes.Config
)

// SpeedcheckerFleet generates the wireless end-user fleet of §3.2.
func SpeedcheckerFleet(w *World, cfg FleetConfig) *Fleet {
	return probes.GenerateSpeedchecker(w, cfg)
}

// AtlasFleet generates the wired managed fleet of §3.2.
func AtlasFleet(w *World, cfg FleetConfig) *Fleet {
	return probes.GenerateAtlas(w, cfg)
}

// Campaign runs a measurement campaign; CampaignConfig shapes it; Store
// holds the collected records.
type (
	Campaign       = measure.Campaign
	CampaignConfig = measure.Config
	CampaignStats  = measure.Stats
	Store          = dataset.Store
	PingRecord     = dataset.PingRecord
	Traceroute     = dataset.TracerouteRecord
)

// NewCampaign assembles a campaign over one fleet, validating cfg.
func NewCampaign(sim *Simulator, fleet *Fleet, cfg CampaignConfig) (*Campaign, error) {
	return measure.New(sim, fleet, cfg)
}

// Fault-injection re-exports: a FaultPlan (or any FaultInjector) wired
// into both the simulator and CampaignConfig.Faults runs a chaos
// campaign that stays deterministic under its seed; Checkpoint carries
// a paused campaign's state across a restart.
type (
	FaultInjector = faults.Injector
	FaultPlan     = faults.Plan
	Checkpoint    = measure.Checkpoint
)

// FaultProfile resolves a named fault profile ("flaky-wireless",
// "quota-storm", "partition"); FaultProfiles lists the names.
var (
	FaultProfile  = faults.Profile
	FaultProfiles = faults.Names
)

// Processor turns raw traceroutes into classified, AS-attributed paths;
// Processed is its per-trace output.
type (
	Processor = pipeline.Processor
	Processed = pipeline.Processed
)

// NewProcessor returns a traceroute processor over a world's
// registries.
func NewProcessor(w *World) *Processor { return pipeline.NewProcessor(w) }

// Study aliases re-export the end-to-end orchestrator.
type (
	Study         = core.Study
	StudyConfig   = core.Config
	StudyResults  = core.Results
	AnalyzeConfig = core.AnalyzeConfig
)

// RunStudy executes the full reproduction: world, fleets, both
// campaigns, processing.
func RunStudy(ctx context.Context, cfg StudyConfig) (*Study, error) {
	return core.Run(ctx, cfg)
}

// Analysis result types, one per figure family.
type (
	CountryLatency        = analysis.CountryLatency        // Fig 3
	ThresholdSummary      = analysis.ThresholdSummary      // §4.1 takeaway
	ContinentDistribution = analysis.ContinentDistribution // Fig 4
	PlatformDiff          = analysis.PlatformDiff          // Fig 5
	InterContinentBox     = analysis.InterContinentBox     // Fig 6
	LastMileImpact        = analysis.LastMileImpact        // Fig 7/19
	CvGroup               = analysis.CvGroup               // Fig 8/9
	InterconnectShare     = analysis.InterconnectShare     // Fig 10
	PervasivenessRow      = analysis.PervasivenessRow      // Fig 11
	PeeringMatrix         = analysis.PeeringMatrix         // Fig 12a etc.
	PeeringLatency        = analysis.PeeringLatency        // Fig 12b etc.
)

// QoE thresholds of §2.1, re-exported for callers classifying latencies.
const (
	MTPms = analysis.MTPms
	HPLms = analysis.HPLms
	HRTms = analysis.HRTms
)

// WritePingsCSV and ReadPingsCSV stream the published dataset's ping
// format; WriteTracesJSONL and ReadTracesJSONL its traceroute format.
var (
	WritePingsCSV    = dataset.WritePingsCSV
	ReadPingsCSV     = dataset.ReadPingsCSV
	WriteTracesJSONL = dataset.WriteTracesJSONL
	ReadTracesJSONL  = dataset.ReadTracesJSONL
)

// Sink streams records during collection; FileSink writes the
// published formats in constant memory (set CampaignConfig.Sink).
type (
	Sink     = dataset.Sink
	FileSink = dataset.FileSink
)

// NewFileSink wraps two destinations for streamed collection.
var NewFileSink = dataset.NewFileSink

// Edge re-exports the §7 what-if evaluator.
type (
	EdgeScenario = edge.Scenario
	EdgeVerdict  = edge.Verdict
	FiveGWhatIf  = edge.FiveG
)

// EvaluateEdge replays measurements under the three compute placements;
// EvaluateFiveG scales the wireless last mile (0.5 ≈ measured early 5G,
// 0.05 ≈ the promised radio); EdgeVerdicts condenses the conclusions.
var (
	EvaluateEdge  = edge.Evaluate
	EvaluateFiveG = edge.Evaluate5G
	EdgeVerdicts  = edge.Verdicts
)

// InferASRelationships runs Gao's relationship-inference algorithm over
// observed AS paths — the self-validation loop showing the synthetic
// topology carries the structure real inference depends on.
var InferASRelationships = bgp.InferRelationships
