// Lastmile isolates the wireless access segment the way §5 of the paper
// does, and answers the §7 question for latency-critical applications:
// if a compute server sat directly at the last-mile hop — the best any
// edge deployment can do — would Motion-to-Photon applications work?
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)
	study, err := core.Run(context.Background(), core.Config{
		Seed: 3, Scale: 0.05, Cycles: 4,
	})
	if err != nil {
		log.Fatal(err)
	}

	impacts := analysis.LastMile(study.Processed, false)
	global := analysis.GlobalLastMile(study.Processed)
	report.LastMile(os.Stdout, impacts, global, "Last-mile share and absolute latency (Figure 7)")

	cvs := analysis.LastMileCvByContinent(study.Processed, 5)
	fmt.Println()
	report.CvGroups(os.Stdout, cvs, "Last-mile stability (Figure 8, Cv = σ/μ per probe)")

	// The §7 verdict: collect the wireless USR-ISP samples and ask how
	// often even a zero-distance edge server would meet MTP.
	var wireless []float64
	for i := range study.Processed {
		p := &study.Processed[i]
		lm := p.LastMile
		if p.Record.VP.Platform == "speedchecker" && lm.Kind.String() != "?" && lm.Kind.String() != "wired" && lm.UserToISPms > 0 {
			wireless = append(wireless, lm.UserToISPms)
		}
	}
	if len(wireless) == 0 {
		log.Fatal("no wireless last-mile samples")
	}
	cdf, err := stats.NewCDF(wireless)
	if err != nil {
		log.Fatal(err)
	}
	med, _ := stats.Median(wireless)
	fmt.Printf("\nEdge feasibility check (%d wireless last-mile samples):\n", len(wireless))
	fmt.Printf("  median wireless access RTT: %.1f ms (MTP budget is %d ms end-to-end)\n", med, analysis.MTPms)
	fmt.Printf("  even with a server AT the last-mile hop, only %.0f%% of accesses fit MTP\n",
		100*cdf.At(analysis.MTPms))
	fmt.Printf("  ...but %.0f%% fit HPL, which the cloud already delivers in dense regions\n",
		100*cdf.At(analysis.HPLms))
	fmt.Println("conclusion (§7): MTP-class apps stay infeasible over today's wireless no matter")
	fmt.Println("where compute sits; HPL/HRT apps don't need the edge where datacenters are dense.")
}
