package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/cloud"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/segment"
	"repro/internal/store"
)

// The bench store's shape. Rows per country follow zipf(0.9) over the
// country table's own order and are fixed by the row count alone: the
// seed draws values (RTT, provider, cycle, peering tallies), never the
// shape, so every seed costs the program the same work.
const (
	fixtureCycles     = 12
	fixtureShards     = 4
	fixturePartitions = 4
	fixtureSpan       = fixtureCycles / fixturePartitions // cycles per partition
	countrySkew       = 0.9
)

var continentBaseMs = map[geo.Continent]float64{
	geo.EU: 22, geo.NA: 31, geo.AS: 58, geo.SA: 66, geo.AF: 97, geo.OC: 49,
}

// buildStore seals the bench store: every country, the ten provider
// codes, 80/20 speedchecker/atlas, twelve cycles, per-cycle peering
// tallies. One country×provider pair in seven slows by 15 % from the
// campaign midpoint on, so /v1/changepoint has shifts to rank. RTT noise
// is bounded and the shift overlaps the unshifted mode: the sketch
// tolerances the oracle applies were pinned on light-tailed, unimodal
// groups, and a workload must not fail on the seed.
func buildStore(seed int64, rows int, reg *obs.Registry) *store.Store {
	rng := rand.New(rand.NewSource(seed))
	providers := cloud.NewInventory().ProviderCodes()
	countries := geo.AllCountries()
	b := store.NewBuilder(store.Options{
		Shards: fixtureShards, Partitions: fixturePartitions, Cycles: fixtureCycles, Obs: reg,
	})
	var norm float64
	for i := range countries {
		norm += math.Pow(float64(i+1), -countrySkew)
	}
	for i, c := range countries {
		n := int(math.Round(float64(rows) * math.Pow(float64(i+1), -countrySkew) / norm))
		countryMs := continentBaseMs[c.Continent] * (0.9 + 0.2*rng.Float64())
		provMs := make([]float64, len(providers))
		shifted := make([]bool, len(providers))
		for p := range providers {
			provMs[p] = 6 * rng.Float64()
			shifted[p] = rng.Intn(7) == 0
		}
		for k := 0; k < n; k++ {
			platform, wired := "speedchecker", 0.0
			if k%5 == 4 {
				platform, wired = "atlas", -2.5
			}
			p := rng.Intn(len(providers))
			cycle := rng.Intn(fixtureCycles)
			rtt := (countryMs+provMs[p])*(0.75+0.25*(rng.Float64()+rng.Float64())) + wired
			if shifted[p] && cycle >= fixtureCycles/2 {
				rtt += 0.15 * countryMs
			}
			b.Add(store.Sample{
				Platform: platform, Country: c.Code, Continent: c.Continent,
				Provider: providers[p], RTTms: math.Max(rtt, 1), Cycle: cycle,
			})
		}
	}
	for cycle := 0; cycle < fixtureCycles; cycle++ {
		counts := map[string]map[pipeline.Class]int{}
		for _, p := range providers {
			counts[p] = map[pipeline.Class]int{
				pipeline.ClassDirect:    20 + rng.Intn(60),
				pipeline.ClassDirectIXP: 5 + rng.Intn(20),
				pipeline.ClassPrivate:   10 + rng.Intn(30),
				pipeline.ClassPublic:    5 + rng.Intn(25),
			}
		}
		b.AddPeeringCountsAt(cycle, counts)
	}
	return b.Seal()
}

// outDir is where the benchmark writes: segment directories while it
// runs, span files at exit. It sits under the benchmark's own directory
// so nothing outside the checkout is touched; bench/.gitignore names it.
const outDir = "bench/out"

// scratchDir returns a fresh directory under outDir.
func scratchDir(prefix string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, prefix)
}

// segmentBytes sums the .cseg files of a written segment directory.
func segmentBytes(dir string) (int64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.cseg"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// checkSegmentFiles runs the segment validators over every file of a
// written directory.
func checkSegmentFiles(dir string, shards int) error {
	raw, err := os.ReadFile(filepath.Join(dir, segment.MetaFile))
	if err != nil {
		return err
	}
	if err := segment.CheckMeta(raw); err != nil {
		return fmt.Errorf("%s: %w", segment.MetaFile, err)
	}
	for i := 0; i < shards; i++ {
		raw, err := os.ReadFile(filepath.Join(dir, segment.ShardFile(i)))
		if err != nil {
			return err
		}
		if err := segment.CheckShard(raw); err != nil {
			return fmt.Errorf("%s: %w", segment.ShardFile(i), err)
		}
	}
	return nil
}
