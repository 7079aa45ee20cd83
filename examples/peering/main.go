// Peering reproduces the §6 analysis for one country pair chosen on the
// command line: it classifies every observed ISP→cloud interconnection
// (direct / one private carrier / public Internet / via IXP), prints the
// Figure 12a-style matrix, and quantifies what direct peering buys in
// median latency and in tail tightness.
//
//	go run ./examples/peering [-from JP] [-to IN]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	log.SetFlags(0)
	from := flag.String("from", "JP", "vantage-point country")
	to := flag.String("to", "IN", "datacenter country")
	flag.Parse()

	study, err := core.Run(context.Background(), core.Config{
		Seed: 11, Scale: 0.06, Cycles: 4,
	})
	if err != nil {
		log.Fatal(err)
	}

	matrix := analysis.CaseStudyMatrix(study.Processed, study.World.Registry, *from, *to, 5)
	latency := analysis.CaseStudyLatency(study.Processed, *from, *to, 5)
	if len(matrix.Rows) == 0 {
		log.Fatalf("no classified paths from %s to %s — try a pair with datacenters (JP→IN, DE→GB, UA→GB, BH→IN)", *from, *to)
	}
	report.CaseStudy(os.Stdout, matrix, latency, fmt.Sprintf("Peering case study (%s→%s)", *from, *to))

	if len(latency) > 0 {
		fmt.Println("\nWhat direct peering buys here:")
		for _, pl := range latency {
			medGain := pl.Transit.Median - pl.Direct.Median
			iqrGain := pl.Transit.IQR() - pl.Direct.IQR()
			fmt.Printf("  %-5s median %+.0f ms, interquartile range %+.0f ms\n",
				pl.Provider, -medGain, -iqrGain)
		}
		fmt.Println("(negative numbers mean direct peering is better — the paper finds the")
		fmt.Println(" median gain negligible in Europe but the tail gain substantial in Asia)")
	}

	// Global context: the Figure 10 breakdown across all providers.
	fmt.Println()
	report.Interconnections(os.Stdout, analysis.Interconnections(study.Processed))
}
