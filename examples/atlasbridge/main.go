// Atlasbridge demonstrates interoperability with the RIPE Atlas result
// format the comparison dataset ships in: it runs a small campaign,
// exports the measurements as Atlas NDJSON plus the probe-metadata
// sidecar, re-imports them, and re-runs an analysis over the imported
// records to show the round trip is lossless.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/atlasfmt"
	"repro/internal/core"
	"repro/internal/dataset"
)

func main() {
	log.SetFlags(0)
	study, err := core.Run(context.Background(), core.Config{
		Seed: 13, Scale: 0.02, Cycles: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	np, nt := study.Store.Len()
	fmt.Printf("campaign: %d pings, %d traceroutes\n", np, nt)

	// Export to the Atlas wire format.
	meta := atlasfmt.NewMeta()
	var pingsNDJSON, tracesNDJSON bytes.Buffer
	if err := atlasfmt.ExportPings(&pingsNDJSON, study.Store.Pings, meta); err != nil {
		log.Fatal(err)
	}
	if err := atlasfmt.ExportTraces(&tracesNDJSON, study.Store.Traces, meta); err != nil {
		log.Fatal(err)
	}
	var sidecar bytes.Buffer
	if err := meta.WriteMeta(&sidecar); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exported %d KiB of Atlas NDJSON pings, %d KiB traceroutes, %d probe IDs in the sidecar\n",
		pingsNDJSON.Len()/1024, tracesNDJSON.Len()/1024, len(meta.ProbeIDs()))

	// Re-import through the sidecar, as an Atlas user would join the
	// probe-metadata API.
	loadedMeta, err := atlasfmt.ReadMeta(&sidecar)
	if err != nil {
		log.Fatal(err)
	}
	pings, skippedP, err := atlasfmt.ImportPings(&pingsNDJSON, loadedMeta)
	if err != nil {
		log.Fatal(err)
	}
	traces, skippedT, err := atlasfmt.ImportTraces(&tracesNDJSON, loadedMeta)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-imported %d pings (%d skipped), %d traceroutes (%d skipped)\n",
		len(pings), skippedP, len(traces), skippedT)

	// Same analysis, same answers.
	imported := dataset.FromRecords(pings, traces)
	orig := analysis.CollectStore(study.Store).ContinentDistributions("speedchecker")
	redo := analysis.CollectStore(imported).ContinentDistributions("speedchecker")
	fmt.Println("\nunder-HPL share per continent, original vs re-imported:")
	for i := range orig {
		if i >= len(redo) {
			break
		}
		fmt.Printf("  %s: %.4f vs %.4f\n", orig[i].Continent, orig[i].UnderHPL, redo[i].UnderHPL)
		if orig[i].UnderHPL != redo[i].UnderHPL {
			log.Fatalf("round trip drifted on %s", orig[i].Continent)
		}
	}
	fmt.Println("lossless ✓")
}
