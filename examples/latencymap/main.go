// Latencymap reproduces the Figure 3 world map and uses it the way the
// paper's §7 discussion does: deciding, per country, whether edge
// computing would buy anything over the current cloud deployment.
//
// A country whose cloud median already sits under HPL gains little from
// edge servers (only a very dense edge could push it below MTP, and the
// wireless last-mile alone nearly consumes the MTP budget); a country
// stuck above HRT needs infrastructure — regional datacenters or better
// transit — before edge placement even matters.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro/internal/analysis"
	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	study, err := core.Run(context.Background(), core.Config{
		Seed: 7, Scale: 0.05, Cycles: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	results := study.Analyze(core.AnalyzeConfig{MinMapSamples: 8})

	entries := results.LatencyMap
	sort.Slice(entries, func(i, j int) bool { return entries[i].MedianMs < entries[j].MedianMs })

	fmt.Println("Cloud access latency by country (median to closest in-continent DC):")
	fmt.Printf("%-4s %-4s %9s  %-12s %s\n", "cc", "cont", "median", "band", "edge-computing verdict")
	for _, e := range entries {
		fmt.Printf("%-4s %-4s %7.0fms  %-12s %s\n",
			e.Country, e.Continent, e.MedianMs, e.Band, verdict(e.MedianMs))
	}

	best, worst := entries[0], entries[len(entries)-1]
	fmt.Printf("\nfastest: %s (%.0f ms) — slowest: %s (%.0f ms), a %.0f× spread driven by datacenter geography\n",
		best.Country, best.MedianMs, worst.Country, worst.MedianMs, worst.MedianMs/best.MedianMs)

	// The Figure 6 question: can under-served regions escape via
	// neighbouring continents?
	fmt.Println("\nInter-continental escape routes (Figure 6):")
	for _, b := range results.AfricaBoxes {
		fmt.Printf("  %s → nearest %s DC: median %.0f ms\n", b.Country, b.TargetContinent, b.Box.Median)
	}
}

// verdict applies the §7 "which networks can live without the edge"
// reasoning to one country's median.
func verdict(median float64) string {
	switch {
	case median < analysis.MTPms:
		return "cloud already meets MTP; edge unnecessary"
	case median < analysis.HPLms:
		return "cloud meets HPL; edge helps only MTP apps (last-mile limits those anyway)"
	case median < analysis.HRTms:
		return "regional edge or a nearby datacenter would help noticeably"
	default:
		return "needs infrastructure: even HRT is out of reach today"
	}
}
