package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/segment"
	"repro/internal/store"
	"repro/internal/world"
)

// cmdSegment runs (or loads) a campaign, seals the sharded store and
// writes it out as columnar segment files — the durable form `cloudy
// serve -segments` mounts from mmap.
func cmdSegment(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("segment", flag.ExitOnError)
	f := addStudyFlags(fs)
	outDir := fs.String("out", "", "directory to write the segment files into (required)")
	shards := fs.Int("shards", 0, "store shard count (0 = default)")
	pingsPath := fs.String("pings", "", "seal a prior export: ping CSV path (requires -traces)")
	tracesPath := fs.String("traces", "", "seal a prior export: traceroute JSONL path (requires -pings)")
	check := fs.Bool("check", false, "re-read every written file and validate frames, checksums and zone maps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outDir == "" {
		return fmt.Errorf("segment needs -out DIR")
	}
	if (*pingsPath == "") != (*tracesPath == "") {
		return fmt.Errorf("segment needs both -pings and -traces to load an export")
	}

	reg := obs.NewRegistry()
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

	started := time.Now()
	if err := segment.Write(*outDir, st); err != nil {
		return err
	}
	elapsed := time.Since(started)
	sum := st.Summary()
	var total int64
	files := segmentFiles(*outDir, sum.Shards)
	for _, name := range files {
		fi, err := os.Stat(name)
		if err != nil {
			return err
		}
		total += fi.Size()
	}
	fmt.Fprintf(os.Stderr, "wrote %d segment files (%d bytes) for %d rows in %v\n",
		len(files), total, sum.Rows, elapsed.Round(time.Millisecond))

	if *check {
		var usage segment.Usage
		for _, name := range files {
			raw, err := os.ReadFile(name)
			if err != nil {
				return err
			}
			if filepath.Base(name) == segment.MetaFile {
				err = usage.AddMeta(raw)
			} else {
				err = usage.AddShard(raw)
			}
			if err != nil {
				return fmt.Errorf("check %s: %w", filepath.Base(name), err)
			}
		}
		fmt.Fprintf(os.Stderr, "check passed: every frame, checksum and zone map validates\n")
		printUsage(os.Stderr, usage, sum.Rows)
	}
	return nil
}

// printUsage breaks the checked directory's bytes down by block kind
// and by query dimension, each also per stored row: every row is on
// disk once per dimension, so the dimension lines sum to the column and
// sketch lines.
func printUsage(w io.Writer, u segment.Usage, rows int) {
	var total int64
	for _, n := range u.ByKind {
		total += n
	}
	line := func(what string, n int64) {
		fmt.Fprintf(w, "  %-13s %10d B  %5.1f%%  %6.2f B/row\n", what, n,
			100*float64(n)/float64(max(total, 1)), float64(n)/float64(max(rows, 1)))
	}
	fmt.Fprintf(w, "bytes by block kind and by dimension, %d rows:\n", rows)
	line("total", total)
	for kind := segment.BlockMeta; kind <= segment.BlockFooter; kind++ {
		line(kind.String(), u.ByKind[kind])
	}
	for dim, name := range []string{store.DimCountry: "country", store.DimContinent: "continent", store.DimPair: "pair"} {
		line("by "+name, u.ByDim[dim])
	}
}

func segmentFiles(dir string, shards int) []string {
	names := []string{filepath.Join(dir, segment.MetaFile)}
	for i := 0; i < shards; i++ {
		names = append(names, filepath.Join(dir, segment.ShardFile(i)))
	}
	return names
}
