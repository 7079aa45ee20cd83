// Quickstart: run a scaled-down version of the full study and print the
// paper's headline results — the Figure 3 latency map takeaway, the
// platform comparison, and the Figure 10 peering breakdown.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	fmt.Println("Reproducing 'Cloudy with a Chance of Short RTTs' (IMC 2021) at 3% scale...")

	study, err := core.Run(context.Background(), core.Config{
		Seed:   42,
		Scale:  0.03, // 3% of the 115K-probe fleet keeps this under a minute
		Cycles: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	np, nt := study.Store.Len()
	fmt.Printf("campaign done: %d pings, %d traceroutes from %d+%d probes\n\n",
		np, nt, study.SC.Len(), study.Atlas.Len())

	results := study.Analyze(core.AnalyzeConfig{MinMapSamples: 6})

	// §4.1 takeaway: who meets which QoE threshold.
	t := results.Thresholds
	fmt.Printf("Of %d measured countries: %d meet MTP (<%d ms), %d meet HPL (<%d ms), %d meet HRT (<%d ms)\n",
		t.Countries, t.UnderMTP, analysis.MTPms, t.UnderHPL, analysis.HPLms, t.UnderHRT, analysis.HRTms)

	// §4.2: the measurement platform matters.
	fmt.Println("\nPlatform comparison (share of the distribution where Atlas is faster):")
	for _, d := range results.PlatformDiffs {
		fmt.Printf("  %s: %.0f%%\n", d.Continent, 100*d.AtlasFasterShare)
	}

	// §6.1: who peers directly.
	fmt.Println("\nInterconnection breakdown (Figure 10):")
	for _, s := range results.Interconnections {
		fmt.Printf("  %-5s direct %5.1f%%  1-AS %5.1f%%  2+AS %5.1f%%  (%d paths)\n",
			s.Provider, s.DirectPct, s.OneASPct, s.MultiASPct, s.N)
	}

	fmt.Println("\nFull report: go run ./cmd/cloudy report")
	_ = os.Stdout
}
