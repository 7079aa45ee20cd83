package store

import (
	"sort"

	"repro/internal/pipeline"
	"repro/internal/stats"
)

// Dim names one of the three query dimensions a sealed shard groups
// by. It mirrors the internal dimension enum so external consumers —
// the on-disk segment writer in internal/segment — can label dumped
// group vectors without reaching into shard internals.
type Dim uint8

const (
	DimCountry   Dim = Dim(dimCountry)
	DimContinent Dim = Dim(dimContinent)
	DimPair      Dim = Dim(dimPair)
)

// PairName builds a DimPair group name from its parts — the country
// and provider of a country×provider group.
func PairName(country, provider string) string { return pairName(country, provider) }

// DumpVisitor receives a sealed store's complete content, callback by
// callback, in canonical order: shards ascending; within a shard its
// partitions ascending; within a partition its groups ordered by
// (dimension, platform, name); peering tallies last, partitions
// ascending. Nil callbacks are skipped. The slices and maps handed to
// the callbacks alias the store's frozen memory and must be treated as
// read-only.
//
// The canonical order is part of the contract: the segment writer
// serializes exactly this sequence, which is what makes a written
// segment a deterministic function of the sealed store.
type DumpVisitor struct {
	// Shard reports one shard's totals: row count, sorted provider
	// list, per-platform row counts, and the shard-global Welford RTT
	// accumulator (in arrival order, the summary-statistics source).
	Shard func(shard, rows int, providers []string, platformRows map[string]int, rtt *stats.Welford)
	// Partition reports one time partition's window and zone map.
	// Empty partitions (rows == 0) are reported too — the partition
	// layout itself is part of the store's identity.
	Partition func(shard, part int, w Window, minCycle, maxCycle, rows int)
	// Group reports one group's RTT vector (sorted ascending) with the
	// index-aligned cycle column.
	Group func(shard, part int, dim Dim, platform, name string, rtt []float64, cycle []int32)
	// Peering reports one partition's interconnection tallies and the
	// window they cover.
	Peering func(part int, w Window, counts map[string]map[pipeline.Class]int)
}

// Dump walks the sealed store in canonical order. See DumpVisitor.
func (s *Store) Dump(v DumpVisitor) {
	for i, sh := range s.shards {
		if v.Shard != nil {
			provs := make([]string, 0, len(sh.providers))
			for p := range sh.providers {
				provs = append(provs, p)
			}
			sort.Strings(provs)
			rtt := sh.rtt
			v.Shard(i, sh.rows, provs, sh.platformRows, &rtt)
		}
		for pi, p := range sh.parts {
			if v.Partition != nil {
				v.Partition(i, pi, p.window, p.minCycle, p.maxCycle, p.rows)
			}
			if v.Group == nil {
				continue
			}
			for _, dim := range []dimension{dimCountry, dimContinent, dimPair} {
				m := p.groups(dim)
				keys := make([]groupKey, 0, len(m))
				for k := range m {
					keys = append(keys, k)
				}
				sort.Slice(keys, func(a, b int) bool {
					if keys[a].platform != keys[b].platform {
						return keys[a].platform < keys[b].platform
					}
					return keys[a].name < keys[b].name
				})
				for _, k := range keys {
					g := m[k]
					v.Group(i, pi, Dim(dim), k.platform, k.name, g.rtt, g.cycle)
				}
			}
		}
	}
	if v.Peering != nil {
		for i, counts := range s.peering {
			v.Peering(i, s.partWindows[i], counts)
		}
	}
}
