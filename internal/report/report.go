// Package report renders analysis results as plain-text tables and
// series — the same rows the paper's tables and figures report, in a
// form that diffs cleanly across runs. Every renderer writes to an
// io.Writer so the CLI, the benchmark harness and EXPERIMENTS.md share
// one formatting path.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cloud"
	"repro/internal/edge"
	"repro/internal/geo"
	"repro/internal/measure"
	"repro/internal/stats"
)

// Table1 renders the datacenter inventory (Table 1).
func Table1(w io.Writer, inv *cloud.Inventory) {
	fmt.Fprintf(w, "Table 1: datacenters per continent and backbone class\n")
	fmt.Fprintf(w, "%-22s %4s %4s %4s %4s %4s %4s %6s  %s\n",
		"provider", "EU", "NA", "SA", "AS", "AF", "OC", "total", "backbone")
	counts := inv.CountByContinent()
	conts := []geo.Continent{geo.EU, geo.NA, geo.SA, geo.AS, geo.AF, geo.OC}
	grand := 0
	for _, p := range inv.Providers() {
		row := counts[p.Code]
		total := 0
		fmt.Fprintf(w, "%-22s", p.Name)
		for _, c := range conts {
			fmt.Fprintf(w, " %4d", row[c])
			total += row[c]
		}
		grand += total
		fmt.Fprintf(w, " %6d  %s\n", total, p.Backbone)
	}
	fmt.Fprintf(w, "%-22s %36d\n", "total", grand)
}

// Density renders a fleet distribution (Figures 1b, 2, 14).
func Density(w io.Writer, d analysis.FleetDensity, topN int) {
	fmt.Fprintf(w, "Probe distribution (%s): %d probes\n", d.Platform, d.Total)
	for _, cont := range geo.Continents() {
		fmt.Fprintf(w, "  %s %d", cont, d.PerContinent[cont])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  densest countries:")
	for i, cd := range d.PerCountry {
		if i >= topN {
			break
		}
		fmt.Fprintf(w, " %s:%d", cd.Country, cd.Probes)
	}
	fmt.Fprintln(w)
}

// GeoDensities renders the §3.2 coverage comparison.
func GeoDensities(w io.Writer, gds []analysis.GeoDensity) {
	fmt.Fprintf(w, "geoDensity (probes per M km²): %-4s %10s %10s %8s %10s\n",
		"cont", "sc", "atlas", "ratio", "dc/Mkm2")
	for _, g := range gds {
		fmt.Fprintf(w, "%31s %-4s %10.0f %10.0f %7.1fx %10.2f\n",
			"", g.Continent, g.SCPerMKm2, g.AtlasPerMKm2, g.Ratio, g.DCsPerMKm2)
	}
}

// LatencyMap renders the Figure 3 world map as per-country rows.
func LatencyMap(w io.Writer, entries []analysis.CountryLatency) {
	fmt.Fprintf(w, "Figure 3: median RTT to the closest in-continent datacenter\n")
	fmt.Fprintf(w, "%-4s %-4s %10s %16s %12s %8s\n", "cc", "cont", "median ms", "95%% CI", "band", "samples")
	for _, e := range entries {
		fmt.Fprintf(w, "%-4s %-4s %10.1f [%6.1f,%6.1f] %12s %8d\n",
			e.Country, e.Continent, e.MedianMs, e.CILowMs, e.CIHighMs, e.Band, e.Samples)
	}
	s := analysis.Thresholds(entries)
	fmt.Fprintf(w, "takeaway: %d countries; <MTP %d, <HPL %d, <HRT %d\n",
		s.Countries, s.UnderMTP, s.UnderHPL, s.UnderHRT)
}

// ContinentCDFs renders Figure 4: per-continent threshold attainment
// plus a sampled CDF curve.
func ContinentCDFs(w io.Writer, dists []analysis.ContinentDistribution, points int) {
	fmt.Fprintf(w, "Figure 4: RTT distribution to the nearest datacenter per continent\n")
	fmt.Fprintf(w, "%-4s %8s %8s %8s %8s\n", "cont", "n", "<MTP", "<HPL", "<HRT")
	for _, d := range dists {
		fmt.Fprintf(w, "%-4s %8d %7.1f%% %7.1f%% %7.1f%%\n",
			d.Continent, d.N, 100*d.UnderMTP, 100*d.UnderHPL, 100*d.UnderHRT)
	}
	for _, d := range dists {
		fmt.Fprintf(w, "  %s:", d.Continent)
		for _, xy := range d.CDF.Series(points) {
			fmt.Fprintf(w, " (%.0f,%.2f)", xy[0], xy[1])
		}
		fmt.Fprintln(w)
	}
	// ASCII rendition: one bar per continent at the HPL threshold.
	for _, d := range dists {
		fmt.Fprintf(w, "  %-4s <HPL %s %.0f%%\n", d.Continent, bar(d.UnderHPL, 30), 100*d.UnderHPL)
	}
}

// bar renders a fraction as a fixed-width ASCII bar.
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return "[" + strings.Repeat("#", n) + strings.Repeat(".", width-n) + "]"
}

// PlatformDiffs renders Figure 5.
func PlatformDiffs(w io.Writer, diffs []analysis.PlatformDiff) {
	fmt.Fprintf(w, "Figure 5: Speedchecker − Atlas latency differences (negative ⇒ Speedchecker faster)\n")
	fmt.Fprintf(w, "%-4s %10s %10s %10s %14s\n", "cont", "p10 ms", "p50 ms", "p90 ms", "atlas faster")
	for _, d := range diffs {
		q10, _ := stats.Quantile(d.Diffs, 0.10)
		q50, _ := stats.Quantile(d.Diffs, 0.50)
		q90, _ := stats.Quantile(d.Diffs, 0.90)
		fmt.Fprintf(w, "%-4s %10.1f %10.1f %10.1f %13.0f%%\n",
			d.Continent, q10, q50, q90, 100*d.AtlasFasterShare)
	}
}

// InterContinental renders Figure 6.
func InterContinental(w io.Writer, boxes []analysis.InterContinentBox) {
	fmt.Fprintf(w, "Figure 6: access latency to nearest DC per target continent\n")
	fmt.Fprintf(w, "%-4s %-6s %8s %8s %8s %8s\n", "cc", "target", "q1", "median", "q3", "n")
	for _, b := range boxes {
		fmt.Fprintf(w, "%-4s %-6s %8.0f %8.0f %8.0f %8d\n",
			b.Country, b.TargetContinent, b.Box.Q1, b.Box.Median, b.Box.Q3, b.Box.N)
	}
}

// LastMile renders Figures 7a/7b (or Figure 19 when computed with
// nearestOnly) plus the global rows.
func LastMile(w io.Writer, imps, global []analysis.LastMileImpact, title string) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-8s %-20s %10s %12s %8s\n", "cont", "category", "share %", "abs ms", "n")
	for _, im := range imps {
		fmt.Fprintf(w, "%-8s %-20s %10.1f %12.1f %8d\n",
			im.Continent, im.Category, im.SharePct.Median, im.AbsMs.Median, im.N)
	}
	for _, im := range global {
		fmt.Fprintf(w, "%-8s %-20s %10.1f %12.1f %8d\n",
			"Global", im.Category, im.SharePct.Median, im.AbsMs.Median, im.N)
	}
}

// CvGroups renders Figures 8 and 9.
func CvGroups(w io.Writer, groups []analysis.CvGroup, title string) {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-8s %-20s %10s %8s\n", "group", "category", "median Cv", "probes")
	for _, g := range groups {
		label := g.Country
		if label == "" {
			label = g.Continent.String()
		}
		fmt.Fprintf(w, "%-8s %-20s %10.2f %8d\n", label, g.Category, g.MedianCv, len(g.Cvs))
	}
}

// Interconnections renders Figure 10.
func Interconnections(w io.Writer, shares []analysis.InterconnectShare) {
	fmt.Fprintf(w, "Figure 10: ISP-cloud interconnections per provider\n")
	fmt.Fprintf(w, "%-6s %8s %8s %8s %8s\n", "prov", "direct", "1 AS", "2+ AS", "paths")
	for _, s := range shares {
		fmt.Fprintf(w, "%-6s %7.1f%% %7.1f%% %7.1f%% %8d\n",
			s.Provider, s.DirectPct, s.OneASPct, s.MultiASPct, s.N)
	}
}

// Pervasiveness renders Figure 11.
func Pervasiveness(w io.Writer, rows []analysis.PervasivenessRow) {
	fmt.Fprintf(w, "Figure 11: provider route pervasiveness per continent\n")
	fmt.Fprintf(w, "%-6s", "prov")
	for _, c := range geo.Continents() {
		fmt.Fprintf(w, " %6s", c)
	}
	fmt.Fprintf(w, " %8s\n", "paths")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s", r.Provider)
		for _, c := range geo.Continents() {
			if v, ok := r.PerContinent[c]; ok {
				fmt.Fprintf(w, " %6.2f", v)
			} else {
				fmt.Fprintf(w, " %6s", "-")
			}
		}
		fmt.Fprintf(w, " %8d\n", r.N)
	}
}

// Flattening renders the §2.1 AS-path-length view.
func Flattening(w io.Writer, rows []analysis.Flattening) {
	fmt.Fprintf(w, "Internet flattening: ASes on the path per provider\n")
	fmt.Fprintf(w, "%-6s %8s %8s %8s %8s\n", "prov", "mean", "median", "q3", "paths")
	for _, row := range rows {
		fmt.Fprintf(w, "%-6s %8.2f %8.0f %8.0f %8d\n",
			row.Provider, row.MeanASes, row.Box.Median, row.Box.Q3, row.N)
	}
}

// CaseStudy renders one Figure 12/13/17/18 pair: the peering matrix and
// the direct-vs-transit latency comparison.
func CaseStudy(w io.Writer, m analysis.PeeringMatrix, lat []analysis.PeeringLatency, label string) {
	fmt.Fprintf(w, "%s: peering of top ISPs in %s towards DCs in %s\n", label, m.VPCountry, m.DCCountry)
	provs := cloud.FigureProviderCodes()
	fmt.Fprintf(w, "%-28s", "ISP")
	for _, p := range provs {
		fmt.Fprintf(w, " %-10s", p)
	}
	fmt.Fprintln(w)
	for _, row := range m.Rows {
		fmt.Fprintf(w, "%-28s", fmt.Sprintf("%s (%s)", row.Name, row.ISP))
		for _, p := range provs {
			if cell, ok := row.Cells[p]; ok {
				fmt.Fprintf(w, " %-10s", fmt.Sprintf("%s %.0f%%", cell.Class, cell.Pct))
			} else {
				fmt.Fprintf(w, " %-10s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	if len(lat) > 0 {
		fmt.Fprintf(w, "latency by interconnection (median [q1-q3] ms):\n")
		for _, pl := range lat {
			fmt.Fprintf(w, "  %-6s direct %6.0f [%5.0f-%5.0f] (n=%d)  transit %6.0f [%5.0f-%5.0f] (n=%d)\n",
				pl.Provider,
				pl.Direct.Median, pl.Direct.Q1, pl.Direct.Q3, pl.NDirect,
				pl.Transit.Median, pl.Transit.Q1, pl.Transit.Q3, pl.NTransit)
		}
	}
}

// Closeness renders the Figure 14 probe-clustering view: the densest
// and sparsest ends of the per-country nearest-neighbour distances.
func Closeness(w io.Writer, rows []analysis.Closeness, edge int) {
	fmt.Fprintf(w, "Figure 14: probe closeness (median km to nearest in-country neighbour)\n")
	show := func(r analysis.Closeness) {
		fmt.Fprintf(w, "  %-4s %7.1f km  (%d probes)\n", r.Country, r.MedianNN, r.Probes)
	}
	for i := 0; i < edge && i < len(rows); i++ {
		show(rows[i])
	}
	if len(rows) > 2*edge {
		fmt.Fprintf(w, "  ...\n")
	}
	for i := len(rows) - edge; i < len(rows); i++ {
		if i < edge || i < 0 {
			continue
		}
		show(rows[i])
	}
}

// Protocols renders Figure 15.
func Protocols(w io.Writer, rows []analysis.ProtocolComparison) {
	fmt.Fprintf(w, "Figure 15: ICMP vs TCP per continent (per <country, DC> pair medians)\n")
	fmt.Fprintf(w, "%-4s %10s %10s %10s %8s\n", "cont", "tcp med", "icmp med", "gap", "pairs")
	for _, r := range rows {
		fmt.Fprintf(w, "%-4s %10.1f %10.1f %9.1f%% %8d\n",
			r.Continent, r.TCP.Median, r.ICMP.Median, r.MedianGapPct, r.Pairs)
	}
}

// Matched renders Figure 16.
func Matched(w io.Writer, rows []analysis.MatchedDiff) {
	fmt.Fprintf(w, "Figure 16: SC − Atlas within matched <country, ISP> groups\n")
	fmt.Fprintf(w, "%-4s %8s %10s %10s\n", "cont", "groups", "p50 diff", "atlas wins")
	for _, m := range rows {
		med, _ := stats.Median(m.Diffs)
		wins := 0
		for _, d := range m.Diffs {
			if d > 0 {
				wins++
			}
		}
		fmt.Fprintf(w, "%-4s %8d %10.1f %9.0f%%\n",
			m.Continent, m.MatchedGroups, med, 100*float64(wins)/float64(len(m.Diffs)))
	}
}

// ProviderConsistency renders the §8 cross-provider comparison.
func ProviderConsistency(w io.Writer, rows []analysis.ProviderConsistency) {
	fmt.Fprintf(w, "Provider consistency (nearest-DC medians per provider):\n")
	for _, r := range rows {
		fmt.Fprintf(w, "  %s spread %.1f ms, max KS %.2f:", r.Continent, r.MedianSpreadMs, r.MaxKS)
		for _, p := range r.Providers {
			fmt.Fprintf(w, " %s:%.0f", p.Provider, p.Box.Median)
		}
		fmt.Fprintln(w)
	}
}

// EdgeScenarios renders the §7 what-if placements.
func EdgeScenarios(w io.Writer, scenarios []edge.Scenario, verdicts []edge.Verdict) {
	fmt.Fprintf(w, "Edge what-if (§7): attainable latency per compute placement\n")
	fmt.Fprintf(w, "%-5s %-15s %9s %7s %7s %7s %8s\n", "cont", "placement", "median", "<MTP", "<HPL", "<HRT", "n")
	for _, s := range scenarios {
		fmt.Fprintf(w, "%-5s %-15s %7.1fms %6.0f%% %6.0f%% %6.0f%% %8d\n",
			s.Continent, s.Placement, s.Latency.Median,
			100*s.UnderMTP, 100*s.UnderHPL, 100*s.UnderHRT, s.N)
	}
	for _, v := range verdicts {
		verdict := "cloud suffices"
		if v.EdgeWorthwhile {
			verdict = "regional edge worthwhile"
		}
		fmt.Fprintf(w, "  %s: regional-edge gain %.1f ms — %s\n", v.Continent, v.GainMs, verdict)
	}
}

// FiveG renders the §7 wireless what-if.
func FiveG(w io.Writer, today, promised []edge.FiveG) {
	fmt.Fprintf(w, "5G what-if: share of accesses under MTP (20 ms)\n")
	fmt.Fprintf(w, "%-5s %18s %18s %18s\n", "cont", "early 5G @edge", "promised @edge", "promised via cloud")
	byCont := map[geo.Continent]edge.FiveG{}
	for _, row := range promised {
		byCont[row.Continent] = row
	}
	for _, row := range today {
		p := byCont[row.Continent]
		fmt.Fprintf(w, "%-5s %17.0f%% %17.0f%% %17.0f%%\n",
			row.Continent, 100*row.MTPAtLastMile, 100*p.MTPAtLastMile, 100*p.MTPViaCloud)
	}
}

// CampaignStats renders the §3.3 operational summary.
func CampaignStats(w io.Writer, label string, st measure.Stats) {
	conf := st.ConfidentCountries()
	sort.Strings(conf)
	fmt.Fprintf(w, "%s: %d requests, %d pings, %d traceroutes, %d countries, virtual duration %s\n",
		label, st.Requests, st.Pings, st.Traceroutes, st.CountriesCycled,
		st.VirtualDuration.Round(1e9))
	fmt.Fprintf(w, "  countries meeting the 2400-sample confidence bound: %d\n", len(conf))
}

// DataQuality renders the campaign's loss accounting — what the
// resilient engine absorbed on the way to a complete dataset. Quiet
// campaigns (no faults, no retries) print a single clean-run line.
func DataQuality(w io.Writer, label string, st measure.Stats) {
	fmt.Fprintf(w, "%s data quality:\n", label)
	// The fan-out bus ledger prints whenever a multi-sink campaign
	// engaged the bus — even on a clean run, because the high-water mark
	// is the capacity-planning number for the next campaign.
	bus := func() {
		if st.BusHighWater > 0 || st.BusStalls > 0 || st.BusDropped > 0 {
			fmt.Fprintf(w, "  fan-out bus: high-water %d, %d backpressure stalls, %d deliveries dropped to spill\n",
				st.BusHighWater, st.BusStalls, st.BusDropped)
		}
	}
	if st.Attempts == st.Pings && st.Lost == 0 && st.TracesLost == 0 &&
		st.ProbeDropouts == 0 && st.SinkRetries == 0 && !st.SinkDegraded {
		fmt.Fprintf(w, "  clean run: %d attempts, all delivered\n", st.Attempts)
		bus()
		return
	}
	fmt.Fprintf(w, "  pings: %d attempts → %d delivered, %d retried, %d lost (%.2f%% loss), %d timed out\n",
		st.Attempts, st.Pings, st.Retries, st.Lost, 100*st.LossRate(), st.TimedOut)
	fmt.Fprintf(w, "  traceroutes: %d delivered, %d lost\n", st.Traceroutes, st.TracesLost)
	fmt.Fprintf(w, "  probes: %d dropped out mid-cycle, %d quarantine trips, %d selections benched\n",
		st.ProbeDropouts, st.Quarantined, st.QuarantineSkipped)
	if st.SinkRetries > 0 || st.SinkDegraded {
		fmt.Fprintf(w, "  sink: %d transient errors retried, degraded=%v, %d records spilled to memory\n",
			st.SinkRetries, st.SinkDegraded, st.Spilled)
	}
	bus()
}

// Rule prints a section separator.
func Rule(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}
