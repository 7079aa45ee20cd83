// Edgeplanner runs the §7 what-if analysis: replay the measured
// campaign under three compute placements (status-quo cloud, a regional
// edge datacenter per country, a server at the last-mile hop) and
// decide, per continent, whether building edge infrastructure is worth
// it — the paper's "which networks can live without the edge?".
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/edge"
)

func main() {
	log.SetFlags(0)
	study, err := core.Run(context.Background(), core.Config{
		Seed: 21, Scale: 0.05, Cycles: 4,
	})
	if err != nil {
		log.Fatal(err)
	}

	scenarios := edge.Evaluate(study.Processed, 4 /* ms regional haul */)
	fmt.Println("Attainable latency by compute placement (medians, % under QoE thresholds):")
	fmt.Printf("%-5s %-15s %9s %7s %7s %7s\n", "cont", "placement", "median", "<MTP", "<HPL", "<HRT")
	for _, s := range scenarios {
		fmt.Printf("%-5s %-15s %7.1fms %6.0f%% %6.0f%% %6.0f%%\n",
			s.Continent, s.Placement, s.Latency.Median,
			100*s.UnderMTP, 100*s.UnderHPL, 100*s.UnderHRT)
	}

	fmt.Println("\nVerdicts (sorted by what a regional edge would buy):")
	for _, v := range edge.Verdicts(scenarios) {
		decision := "cloud is enough — spend on peering, not edge"
		if v.EdgeWorthwhile {
			decision = "regional edge worthwhile"
		}
		fmt.Printf("  %-3s cloud %5.1f ms → edge %5.1f ms (gain %5.1f ms): %s\n",
			v.Continent, v.CloudMedianMs, v.EdgeMedianMs, v.GainMs, decision)
		if v.MTPFeasibleAtLastMile {
			fmt.Printf("      (surprisingly, MTP would be feasible at the last mile here)\n")
		}
	}
	fmt.Println("\n§7's conclusion holds when no continent reaches MTP even at the last-mile hop,")
	fmt.Println("and only under-provisioned continents clear the edge-worthwhile bar.")
}
