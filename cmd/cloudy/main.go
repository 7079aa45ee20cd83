// Command cloudy runs the reproduction of "Cloudy with a Chance of
// Short RTTs" end to end and prints the paper's tables and figures.
//
// Usage:
//
//	cloudy world  [-seed N]                      summarize the synthetic Internet
//	cloudy report [-seed N] [-scale F] [-cycles N] [-figure ID]
//	                                             run the study; print all (or one) figure
//	cloudy export [-seed N] [-scale F] -pings F -traces F
//	                                             run the study; write the dataset
//	cloudy serve  [-seed N] [-scale F] [-addr A] run or load a campaign, build the
//	                                             sharded store, serve the /v1 query API
//	                                             (admission control and -reseal live
//	                                             store swaps built in);
//	                                             -segments DIR serves sealed columnar
//	                                             files from mmap instead
//	cloudy segment -out DIR                      run or load a campaign and write the
//	                                             sealed store as columnar segment files
//	                                             with merged quantile sketches
//	cloudy coordinator [-seed N] [-addr A]       lease campaign shards to a worker fleet
//	                                             and merge the returned binary streams
//	cloudy worker [-addr A] [-name ID]           serve campaign shards for a coordinator
//
// Figure IDs accepted by -figure: table1, fig3, fig4, fig5, fig6,
// fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig15, fig16, fig17,
// fig18, fig19, plus the extensions: flattening, providers, edge, 5g,
// closeness, takeaway.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/admit"
	"repro/internal/analysis"
	"repro/internal/atlasfmt"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/probes"
	"repro/internal/report"
	"repro/internal/sample"
	"repro/internal/segment"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/world"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var err error
	switch os.Args[1] {
	case "world":
		err = cmdWorld(os.Args[2:])
	case "report":
		err = cmdReport(ctx, os.Args[2:])
	case "export":
		err = cmdExport(ctx, os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "serve":
		err = cmdServe(ctx, os.Args[2:])
	case "segment":
		err = cmdSegment(ctx, os.Args[2:])
	case "coordinator":
		err = cmdCoordinator(ctx, os.Args[2:])
	case "worker":
		err = cmdWorker(ctx, os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cloudy:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  cloudy world   [-seed N]
  cloudy report  [-seed N] [-scale F] [-cycles N] [-figure ID]
                 [-scenario NAME] [-diurnal F] [-cycle-quota N]
  cloudy export  [-seed N] [-scale F] [-format csv|atlas] -pings FILE -traces FILE
  cloudy analyze [-seed N] -pings FILE -traces FILE
  cloudy serve   [-seed N] [-scale F] [-addr HOST:PORT] [-shards N] [-pings FILE -traces FILE]
                 [-segments DIR [-exact]]
                 [-quota-rate R] [-quota-burst B] [-max-inflight N] [-reseal DUR]
  cloudy segment [-seed N] [-scale F] [-cycles N] [-shards N] [-pings FILE -traces FILE]
                 -out DIR [-check]
  cloudy coordinator [-seed N] [-scale F] [-addr HOST:PORT] [-cluster-shards N]
                 [-cycle-windows N] [-lease-ttl DUR] [-shards N]
  cloudy worker  [-addr HOST:PORT] [-name ID]`)
}

func cmdWorld(args []string) error {
	fs := flag.NewFlagSet("world", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "world seed")
	faultProfile := fs.String("faults", "", faultsUsage)
	if err := fs.Parse(args); err != nil {
		return err
	}
	plan, err := faults.Profile(*faultProfile, *seed)
	if err != nil {
		return err
	}
	w, err := world.Build(world.Config{Seed: *seed})
	if err != nil {
		return err
	}
	if plan != nil {
		fmt.Fprintf(os.Stdout, "fault profile: %s\n\n", plan)
	}
	out := os.Stdout
	report.Table1(out, w.Inventory)
	fmt.Fprintf(out, "\nsynthetic Internet: %d ASes (%d tier-1 carriers, %d exchanges)\n",
		w.Registry.Len(), len(w.Tier1s()), len(w.IXPs()))
	access, tier2 := 0, 0
	for _, c := range geo.AllCountries() {
		access += len(w.AccessISPs(c.Code))
		tier2 += len(w.Tier2s(c.Code))
	}
	fmt.Fprintf(out, "%d access ISPs and %d national transit providers across %d countries\n",
		access, tier2, len(geo.AllCountries()))
	sc := probes.GenerateSpeedchecker(w, probes.Config{Seed: *seed, Scale: 0.02})
	fmt.Fprintf(out, "sample fleet at 2%% scale: %d speedchecker probes in %d countries\n",
		sc.Len(), len(sc.Countries()))
	return nil
}

const faultsUsage = "fault-injection profile: flaky-wireless, quota-storm, partition or none"

const scenarioUsage = "longitudinal event scenario: cable-cut, region-launch or none (fires at the campaign midpoint; prove it via /v1/changepoint)"

type studyFlags struct {
	seed       *int64
	scale      *float64
	cycles     *int
	faults     *string
	scenario   *string
	diurnal    *float64
	cycleQuota *int
}

func addStudyFlags(fs *flag.FlagSet) studyFlags {
	return studyFlags{
		seed:       fs.Int64("seed", 1, "study seed"),
		scale:      fs.Float64("scale", 0.05, "fleet scale (1.0 = the paper's 115K probes)"),
		cycles:     fs.Int("cycles", 4, "country sweeps (the paper's six months ≈ 12)"),
		faults:     fs.String("faults", "", faultsUsage),
		scenario:   fs.String("scenario", "", scenarioUsage),
		diurnal:    fs.Float64("diurnal", 0, "diurnal probe-availability amplitude in [0,1] (0 = off)"),
		cycleQuota: fs.Int("cycle-quota", 0, "measurement request budget per cycle (0 = unlimited)"),
	}
}

// coreConfig expands the study flags into a core.Config.
func (f studyFlags) coreConfig() core.Config {
	return core.Config{
		Seed: *f.seed, Scale: *f.scale, Cycles: *f.cycles,
		FaultProfile: *f.faults, Scenario: *f.scenario,
		DiurnalAmplitude: *f.diurnal, CycleQuota: *f.cycleQuota,
	}
}

func runStudy(ctx context.Context, f studyFlags) (*core.Study, core.Results, error) {
	fmt.Fprintf(os.Stderr, "running study: seed %d, scale %.2f, %d cycles...\n",
		*f.seed, *f.scale, *f.cycles)
	if *f.faults != "" && *f.faults != "none" {
		fmt.Fprintf(os.Stderr, "fault profile: %s\n", *f.faults)
	}
	if *f.scenario != "" && *f.scenario != "none" {
		fmt.Fprintf(os.Stderr, "event scenario: %s\n", *f.scenario)
	}
	study, err := core.Run(ctx, f.coreConfig())
	if err != nil {
		return nil, core.Results{}, err
	}
	np, nt := study.Store.Len()
	fmt.Fprintf(os.Stderr, "collected %d pings, %d traceroutes\n", np, nt)
	if study.SCStats.Lost > 0 || study.SCStats.Retries > 0 {
		fmt.Fprintf(os.Stderr, "loss accounting: %d attempts, %d retries, %d lost, %d quarantine trips\n",
			study.SCStats.Attempts, study.SCStats.Retries, study.SCStats.Lost, study.SCStats.Quarantined)
	}
	return study, study.Analyze(core.AnalyzeConfig{}), nil
}

func cmdReport(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	f := addStudyFlags(fs)
	figure := fs.String("figure", "", "render a single figure (e.g. fig10)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	study, results, err := runStudy(ctx, f)
	if err != nil {
		return err
	}
	out := os.Stdout
	if *figure == "" {
		study.WriteReport(out, results)
		return nil
	}
	switch *figure {
	case "table1":
		report.Table1(out, study.World.Inventory)
	case "fig1", "fig2", "fig14":
		report.Density(out, results.SCDensity, 15)
		report.Density(out, results.AtlasDensity, 15)
	case "fig3":
		report.LatencyMap(out, results.LatencyMap)
	case "fig4":
		report.ContinentCDFs(out, results.ContinentCDFs, 8)
	case "fig5":
		report.PlatformDiffs(out, results.PlatformDiffs)
	case "fig6":
		report.InterContinental(out, results.AfricaBoxes)
		report.InterContinental(out, results.SouthAmericaBoxes)
	case "fig7":
		report.LastMile(out, results.LastMileAll, results.LastMileGlobal, "Figure 7")
	case "fig8":
		report.CvGroups(out, results.CvByContinent, "Figure 8")
	case "fig9":
		report.CvGroups(out, results.CvByCountry, "Figure 9")
	case "fig10":
		report.Interconnections(out, results.Interconnections)
	case "fig11":
		report.Pervasiveness(out, results.Pervasiveness)
	case "fig12":
		report.CaseStudy(out, results.GermanyUK.Matrix, results.GermanyUK.Latency, "Figure 12 (DE→UK)")
	case "fig13":
		report.CaseStudy(out, results.JapanIndia.Matrix, results.JapanIndia.Latency, "Figure 13 (JP→IN)")
	case "fig15":
		report.Protocols(out, results.Protocols)
	case "fig16":
		report.Matched(out, results.MatchedDiffs)
	case "fig17":
		report.CaseStudy(out, results.UkraineUK.Matrix, results.UkraineUK.Latency, "Figure 17 (UA→UK)")
	case "fig18":
		report.CaseStudy(out, results.BahrainIndia.Matrix, results.BahrainIndia.Latency, "Figure 18 (BH→IN)")
	case "fig19":
		report.LastMile(out, results.LastMileNearest, nil, "Figure 19")
	case "flattening":
		report.Flattening(out, results.Flattening)
	case "providers":
		report.ProviderConsistency(out, results.ProviderConsistency)
	case "edge":
		report.EdgeScenarios(out, results.EdgeScenarios, results.EdgeVerdicts)
	case "5g":
		report.FiveG(out, results.FiveGToday, results.FiveGPromised)
	case "closeness":
		report.Closeness(out, results.SCCloseness, 12)
	case "takeaway":
		s := analysis.Thresholds(results.LatencyMap)
		fmt.Fprintf(out, "countries %d: <MTP %d, <HPL %d, <HRT %d\n",
			s.Countries, s.UnderMTP, s.UnderHPL, s.UnderHRT)
	default:
		return fmt.Errorf("unknown figure %q", *figure)
	}
	return nil
}

func cmdExport(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	f := addStudyFlags(fs)
	pingsPath := fs.String("pings", "", "ping output path (CSV or Atlas NDJSON)")
	tracesPath := fs.String("traces", "", "traceroute output path (JSONL or Atlas NDJSON)")
	format := fs.String("format", "csv", "output format: csv (published dataset) or atlas (RIPE Atlas NDJSON + meta sidecar)")
	stream := fs.Bool("stream", false, "stream records to disk during the campaign (csv format only; constant memory, use for -scale 1)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pingsPath == "" || *tracesPath == "" {
		return fmt.Errorf("export needs -pings and -traces paths")
	}
	if *format != "csv" && *format != "atlas" {
		return fmt.Errorf("unknown format %q", *format)
	}
	if *stream {
		if *format != "csv" {
			return fmt.Errorf("-stream supports only -format csv")
		}
		return streamExport(ctx, f, *pingsPath, *tracesPath)
	}
	study, _, err := runStudy(ctx, f)
	if err != nil {
		return err
	}
	pf, err := os.Create(*pingsPath)
	if err != nil {
		return err
	}
	defer pf.Close()
	tf, err := os.Create(*tracesPath)
	if err != nil {
		return err
	}
	defer tf.Close()
	switch *format {
	case "csv":
		if err := study.ExportDataset(pf, tf); err != nil {
			return err
		}
	case "atlas":
		meta := atlasfmt.NewMeta()
		if err := atlasfmt.ExportPings(pf, study.Store.Pings, meta); err != nil {
			return err
		}
		if err := atlasfmt.ExportTraces(tf, study.Store.Traces, meta); err != nil {
			return err
		}
		mf, err := os.Create(*pingsPath + ".meta.json")
		if err != nil {
			return err
		}
		defer mf.Close()
		if err := meta.WriteMeta(mf); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote sidecar %s\n", *pingsPath+".meta.json")
	}
	fmt.Fprintf(os.Stderr, "wrote %s and %s\n", *pingsPath, *tracesPath)
	return nil
}

// streamExport runs both campaigns with a file sink, never holding the
// dataset in memory — the path for full-scale (-scale 1) runs.
func streamExport(ctx context.Context, f studyFlags, pingsPath, tracesPath string) error {
	setup, err := core.Prepare(f.coreConfig())
	if err != nil {
		return err
	}
	pf, err := os.Create(pingsPath)
	if err != nil {
		return err
	}
	defer pf.Close()
	tf, err := os.Create(tracesPath)
	if err != nil {
		return err
	}
	defer tf.Close()
	bufP := bufio.NewWriterSize(pf, 1<<20)
	bufT := bufio.NewWriterSize(tf, 1<<20)

	// One sink across both campaigns: a second sink would emit a second
	// CSV header mid-file. A degraded file sink means an incomplete
	// export, so any error is fatal here.
	sink := dataset.NewFileSink(bufP, bufT)
	_, scStats, atStats, err := setup.RunCampaigns(ctx, sink)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "streamed %d pings, %d traceroutes\n",
		scStats.Pings+atStats.Pings, scStats.Traceroutes+atStats.Traceroutes)
	if err := bufP.Flush(); err != nil {
		return err
	}
	return bufT.Flush()
}

// cmdServe builds the sharded measurement store — from a fresh campaign
// (honouring -faults) or a previously exported dataset — and serves it
// over the /v1 HTTP query API until interrupted, then drains (readiness
// flips first). Admission control is on by default; -reseal re-runs the
// campaign on an interval and atomically swaps the fresh store in while
// serving.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	f := addStudyFlags(fs)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	pingsPath := fs.String("pings", "", "serve a prior export: ping CSV path (requires -traces)")
	tracesPath := fs.String("traces", "", "serve a prior export: traceroute JSONL path (requires -pings)")
	shards := fs.Int("shards", 0, "store shard count (0 = default)")
	cacheEntries := fs.Int("cache", 256, "response cache entries")
	timeout := fs.Duration("timeout", 5*time.Second, "deadline of a request that runs a query (cache hits carry none)")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	quotaRate := fs.Float64("quota-rate", 0, "per-client quota, requests/s (0 = default 100, negative disables)")
	quotaBurst := fs.Float64("quota-burst", 0, "per-client burst capacity (0 = 2x rate)")
	maxInflight := fs.Int("max-inflight", 0, "global concurrency ceiling, shed 503 past it (0 = default 1024, negative disables)")
	reseal := fs.Duration("reseal", 0, "re-run the campaign with a bumped seed and swap the store live on this interval (campaign mode only)")
	segmentsDir := fs.String("segments", "", "serve a segment directory written by `cloudy segment -out DIR` from mmap instead of building a store")
	exactFlag := fs.Bool("exact", false, "with -segments: answer figure queries from the full columns instead of the merged quantile sketches")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*pingsPath == "") != (*tracesPath == "") {
		return fmt.Errorf("serve needs both -pings and -traces to load an export")
	}
	if *reseal > 0 && *pingsPath != "" {
		return fmt.Errorf("-reseal re-runs the campaign and cannot be combined with -pings/-traces")
	}
	if *exactFlag && *segmentsDir == "" {
		return fmt.Errorf("-exact only applies to -segments")
	}

	// One registry and tracer span the whole process: campaign, bus,
	// store feed, seal and the query service all register here, so
	// /v1/metricsz and /v1/tracez show the full spine.
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(0)
	ctx = obs.ContextWithTracer(ctx, tracer)

	// Segment mode: the store was sealed and written earlier; mmap the
	// columnar files and answer from page cache. Re-sealing is a
	// live-store concept and does not apply.
	if *segmentsDir != "" {
		if *pingsPath != "" || *reseal > 0 {
			return fmt.Errorf("-segments serves sealed files and cannot be combined with -pings/-traces or -reseal")
		}
		rd, err := segment.Open(*segmentsDir, segment.Options{Exact: *exactFlag, Obs: reg})
		if err != nil {
			return err
		}
		defer rd.Close()
		mode := "segments"
		if *exactFlag {
			mode = "segments-exact"
		}
		sum := rd.Summary()
		fmt.Fprintf(os.Stderr, "segments mounted (%s): %d rows in %d shards (%d countries, %d providers)\n",
			mode, sum.Rows, sum.Shards, sum.Countries, sum.Providers)
		srv := serve.New(rd, serve.Options{
			CacheEntries: *cacheEntries, Timeout: *timeout,
			Obs: reg, Tracer: tracer, EnablePprof: *pprofFlag, StoreMode: mode,
			Admit: admit.Options{
				RatePerSec: *quotaRate, Burst: *quotaBurst, MaxInFlight: *maxInflight,
			},
		})
		fmt.Fprintf(os.Stderr, "serving http://%s/v1/{latency-map,cdf,platform-diff,peering-shares,healthz,readyz,statsz,metricsz,tracez} (ctrl-c drains)\n", *addr)
		return srv.ListenAndServe(ctx, *addr)
	}

	// Both paths below build the columnar store incrementally through a
	// store.Feed — no dataset.Store is ever materialized for serving.
	var st *store.Store
	if *pingsPath != "" {
		w, err := world.Build(world.Config{Seed: *f.seed})
		if err != nil {
			return err
		}
		feed := store.NewFeed(pipeline.NewProcessor(w), store.Options{Shards: *shards, Obs: reg})
		if err := scanExport(*pingsPath, *tracesPath, feed); err != nil {
			return err
		}
		np, nt := feed.Len()
		fmt.Fprintf(os.Stderr, "streamed %d pings, %d traceroutes from export\n", np, nt)
		st = feed.SealContext(ctx)
	} else {
		cfg := f.coreConfig()
		cfg.Obs = reg
		var err error
		st, err = campaignStore(ctx, cfg, reg, *shards)
		if err != nil {
			return err
		}
	}
	sum := st.Summary()
	fmt.Fprintf(os.Stderr, "store sealed: %d rows in %d shards (%d countries, %d providers; shard balance %d..%d rows)\n",
		sum.Rows, sum.Shards, sum.Countries, sum.Providers, sum.MinShardRows, sum.MaxShardRows)

	srv := serve.New(st, serve.Options{
		CacheEntries: *cacheEntries, Timeout: *timeout,
		Obs: reg, Tracer: tracer, EnablePprof: *pprofFlag, StoreMode: "memory",
		Admit: admit.Options{
			RatePerSec: *quotaRate, Burst: *quotaBurst, MaxInFlight: *maxInflight,
		},
	})
	if *reseal > 0 {
		go resealLoop(ctx, srv, f, reg, *shards, *reseal)
	}
	fmt.Fprintf(os.Stderr, "serving http://%s/v1/{latency-map,cdf,platform-diff,peering-shares,healthz,readyz,statsz,metricsz,tracez} (ctrl-c drains)\n", *addr)
	return srv.ListenAndServe(ctx, *addr)
}

// campaignStore runs the campaigns into a fresh store.Feed and seals
// it. A sample.CounterSink rides alongside the feed so the campaign
// fans out through the bounded bus — the same streaming spine a
// multi-destination run uses, with its queue telemetry live on
// /v1/metricsz while the campaign runs.
func campaignStore(ctx context.Context, cfg core.Config, reg *obs.Registry, shards int) (*store.Store, error) {
	fmt.Fprintf(os.Stderr, "running study: seed %d, scale %.2f, %d cycles...\n",
		cfg.Seed, cfg.Scale, cfg.Cycles)
	setup, err := core.Prepare(cfg)
	if err != nil {
		return nil, err
	}
	feed := store.NewFeed(pipeline.NewProcessor(setup.World), store.Options{Shards: shards, Obs: reg})
	spill, scStats, atStats, err := setup.RunCampaigns(ctx, feed, sample.NewCounterSink(reg))
	if err != nil {
		if spill == nil || !(scStats.SinkDegraded || atStats.SinkDegraded) {
			return nil, err
		}
		// The campaigns completed; the undelivered remainder sits in
		// the spill store. Fold it back in and serve the full dataset.
		fmt.Fprintf(os.Stderr, "sink degraded (%v); folding %d spilled records back into the feed\n",
			err, scStats.Spilled+atStats.Spilled)
		for i := range spill.Pings {
			if perr := feed.Ping(spill.Pings[i]); perr != nil {
				return nil, perr
			}
		}
		for i := range spill.Traces {
			if terr := feed.Trace(spill.Traces[i]); terr != nil {
				return nil, terr
			}
		}
	}
	fmt.Fprintf(os.Stderr, "streamed %d pings, %d traceroutes\n",
		scStats.Pings+atStats.Pings, scStats.Traceroutes+atStats.Traceroutes)
	return feed.SealContext(ctx), nil
}

// resealLoop is the live re-seal: on every tick it re-runs the
// campaign with a bumped seed into a brand-new feed — the old store
// keeps serving throughout — and atomically swaps the fresh seal in.
// Cache keys, singleflight keys and ETags all carry the store epoch,
// so the swap drops zero requests and can never confirm a stale 304.
func resealLoop(ctx context.Context, srv *serve.Server, f studyFlags, reg *obs.Registry, shards int, interval time.Duration) {
	for n := int64(1); ; n++ {
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
		seed := *f.seed + n
		cfg := f.coreConfig()
		cfg.Seed, cfg.Obs = seed, reg
		st, err := campaignStore(ctx, cfg, reg, shards)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			fmt.Fprintf(os.Stderr, "reseal: %v\n", err)
			continue
		}
		epoch := srv.Swap(st)
		fmt.Fprintf(os.Stderr, "resealed: epoch %d mounted (seed %d, %d rows)\n",
			epoch, seed, st.Summary().Rows)
	}
}

// scanExport streams a previously exported dataset into any sink
// through the constant-memory codec cursors — the one export-loading
// path shared by `cloudy serve` (sink = store.Feed) and
// `cloudy analyze` (sink = dataset.StoreSink).
func scanExport(pingsPath, tracesPath string, sink dataset.Sink) error {
	pf, err := os.Open(pingsPath)
	if err != nil {
		return err
	}
	defer pf.Close()
	tf, err := os.Open(tracesPath)
	if err != nil {
		return err
	}
	defer tf.Close()
	if err := dataset.ScanPings(bufio.NewReaderSize(pf, 1<<20), sink.Ping); err != nil {
		return err
	}
	if err := dataset.ScanTraces(bufio.NewReaderSize(tf, 1<<20), sink.Trace); err != nil {
		return err
	}
	return sink.Close()
}

// cmdAnalyze re-runs every analysis over a previously exported dataset
// (the "published dataset + scripts" reproducibility path).
func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "seed the dataset was collected under")
	pingsPath := fs.String("pings", "", "ping CSV path")
	tracesPath := fs.String("traces", "", "traceroute JSONL path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pingsPath == "" || *tracesPath == "" {
		return fmt.Errorf("analyze needs -pings and -traces paths")
	}
	sink := dataset.NewStoreSink(nil)
	if err := scanExport(*pingsPath, *tracesPath, sink); err != nil {
		return err
	}
	np, nt := sink.Store.Len()
	fmt.Fprintf(os.Stderr, "loaded %d pings, %d traceroutes\n", np, nt)
	study, err := core.FromStore(core.Config{Seed: *seed}, sink.Store)
	if err != nil {
		return err
	}
	study.WriteReport(os.Stdout, study.Analyze(core.AnalyzeConfig{}))
	return nil
}
