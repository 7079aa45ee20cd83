package segment

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/store"
)

// referenceIndex is the map-and-sort index Open built before the flat
// one, kept as buildIndex's oracle: groups keyed by their strings, the
// keys sorted by (dim, platform, name), each group's entries split by
// kind and each kind sorted by (partition, offset). ss must be fresh
// from parseShard, its entries in footer order.
func referenceIndex(ss *shardSeg) ([]qkey, map[qkey]*groupBlocks) {
	groups := make(map[qkey]*groupBlocks)
	var keys []qkey
	for _, e := range ss.entries {
		k := qkey{dim: e.dim, platform: string(ss.dict[e.platformID-1]), name: string(ss.dict[e.nameID-1])}
		g := groups[k]
		if g == nil {
			g = &groupBlocks{key: k}
			groups[k] = g
			keys = append(keys, k)
		}
		if e.kind == BlockColumn {
			g.cols = append(g.cols, e)
		} else {
			g.sketches = append(g.sketches, e)
		}
	}
	byPartOffset := func(es []entry) {
		sort.Slice(es, func(i, j int) bool {
			if es[i].part != es[j].part {
				return es[i].part < es[j].part
			}
			return es[i].offset < es[j].offset
		})
	}
	for _, g := range groups {
		byPartOffset(g.cols)
		byPartOffset(g.sketches)
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb := keys[a], keys[b]
		if ka.dim != kb.dim {
			return ka.dim < kb.dim
		}
		if ka.platform != kb.platform {
			return ka.platform < kb.platform
		}
		return ka.name < kb.name
	})
	return keys, groups
}

// checkIndexMatchesReference indexes one shard image both ways and
// requires the same groups in the same order, each with the same
// column and sketch entries in the same order.
func checkIndexMatchesReference(t *testing.T, name string, raw []byte) {
	t.Helper()
	ss, err := parseShard(raw)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	keys, ref := referenceIndex(ss)
	ss.buildIndex()
	if len(ss.groups) != len(keys) || len(keys) == 0 {
		t.Fatalf("%s: %d groups, reference has %d", name, len(ss.groups), len(keys))
	}
	for i, g := range ss.groups {
		want := ref[keys[i]]
		switch {
		case g.key != keys[i]:
			t.Errorf("%s: group %d is %+v, reference has %+v", name, i, g.key, keys[i])
		case !slices.Equal(g.cols, want.cols):
			t.Errorf("%s: group %+v columns %+v, reference %+v", name, g.key, g.cols, want.cols)
		case !slices.Equal(g.sketches, want.sketches):
			t.Errorf("%s: group %+v sketches %+v, reference %+v", name, g.key, g.sketches, want.sketches)
		}
	}
}

// reframeFooter rewrites a writer-made shard image with its footer
// entries in the order perm gives, every CRC valid: the dictionary
// directly precedes the footer in such an image, so a shardWriter
// holding everything before it reproduces the rest.
func reframeFooter(tb testing.TB, raw []byte, perm func(es []entry)) []byte {
	tb.Helper()
	ss, err := parseShard(raw)
	if err != nil {
		tb.Fatal(err)
	}
	sw := &shardWriter{
		buf:     append([]byte(nil), raw[:ss.footerOff-ss.dictBytes]...),
		parts:   ss.parts,
		entries: slices.Clone(ss.entries),
	}
	for _, b := range ss.dict {
		sw.dict = append(sw.dict, string(b))
	}
	perm(sw.entries)
	return sw.finish()
}

// TestShardIndexMatchesReference holds the flat index to the map-and-
// sort one on the golden files, a written multi-partition store whose
// groups span several column blocks, that store with every footer's
// entries shuffled, and a dictionary that repeats a string.
func TestShardIndexMatchesReference(t *testing.T) {
	for _, name := range []string{ShardFile(0), ShardFile(1)} {
		raw, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		checkIndexMatchesReference(t, "golden "+name, raw)
	}

	// 8 cycles × 3 providers × 200 samples put 4 800 rows in each
	// country group's partition: two column blocks apiece.
	const shards = 2
	st := buildStore(t, shards, 2, 16, 200)
	dir, shuffled := t.TempDir(), t.TempDir()
	if err := Write(dir, st); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < shards; i++ {
		raw, err := os.ReadFile(filepath.Join(dir, ShardFile(i)))
		if err != nil {
			t.Fatal(err)
		}
		checkIndexMatchesReference(t, "written "+ShardFile(i), raw)
		if same := reframeFooter(t, raw, func([]entry) {}); !slices.Equal(same, raw) {
			t.Fatalf("%s: re-framing the footer unchanged did not reproduce the file", ShardFile(i))
		}
		perm := reframeFooter(t, raw, func(es []entry) {
			rng.Shuffle(len(es), func(a, b int) { es[a], es[b] = es[b], es[a] })
		})
		if err := CheckShard(perm); err != nil {
			t.Fatalf("%s shuffled: %v", ShardFile(i), err)
		}
		checkIndexMatchesReference(t, "shuffled "+ShardFile(i), perm)
		if err := os.WriteFile(filepath.Join(shuffled, ShardFile(i)), perm, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	meta, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shuffled, MetaFile), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	// Footer order is no part of an answer.
	for _, exact := range []bool{true, false} {
		a, err := Open(dir, Options{Exact: exact})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Open(shuffled, Options{Exact: exact})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.LatencyMap(5), b.LatencyMap(5)) ||
			!reflect.DeepEqual(a.ContinentCDFs("atlas"), b.ContinentCDFs("atlas")) ||
			!reflect.DeepEqual(a.Changepoint("speedchecker", 8, 4), b.Changepoint("speedchecker", 8, 4)) {
			t.Errorf("exact=%v: shuffled footers answer differently", exact)
		}
		a.Close()
		b.Close()
	}

	// Ids 2 and 3 both name "DE": one group, as when groups were keyed
	// by string.
	sw := newShardWriter(2)
	sw.setPartition(0, 2, 0, 1)
	sw.setPartition(1, 2, 2, 3)
	sw.addGroup(1, store.DimCountry, "speedchecker", "DE", []float64{3, 4}, []int32{2, 3})
	sw.addGroup(0, store.DimCountry, "speedchecker", "DE2", []float64{1, 2}, []int32{0, 1})
	sw.dict[len(sw.dict)-1] = "DE"
	checkIndexMatchesReference(t, "repeated dictionary string", sw.finish())
}

// spineStore is shaped like the spine workload's store: every 4th
// country, both platforms, three providers, 2 cycles, 4 shards × 2
// partitions, about 90 groups a shard.
func spineStore(tb testing.TB) *store.Store {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	b := store.NewBuilder(store.Options{Shards: 4, Partitions: 2, Cycles: 2})
	for i, c := range geo.AllCountries() {
		if i%4 != 0 {
			continue
		}
		base := 10 + 80*rng.Float64()
		for _, platform := range []string{"speedchecker", "atlas"} {
			for _, prov := range []string{"AMZN", "GCP", "MSFT"} {
				for cyc := 0; cyc < 2; cyc++ {
					for k := 0; k < 10; k++ {
						b.Add(store.Sample{
							Platform: platform, Country: c.Code, Continent: c.Continent, Provider: prov,
							RTTms: base + 40*rng.Float64(), Cycle: cyc,
						})
					}
				}
			}
		}
	}
	return b.Seal()
}

// TestMountAllocs pins what a mount allocates: CheckShard a constant,
// whatever the number of blocks, and Open a bound linear in shards and
// groups, never in blocks.
func TestMountAllocs(t *testing.T) {
	// checkShardAllocs bounds one CheckShard: 4 for the parsed shard
	// (itself, its dictionary, partitions and entries), 2 for the column
	// buffers, sized once to the largest block, and 10 for the digest's
	// two slices, which double as they grow.
	const checkShardAllocs = 16
	written := t.TempDir()
	if err := Write(written, buildStore(t, 4, 2, 16, 40)); err != nil {
		t.Fatal(err)
	}
	spine := t.TempDir()
	if err := Write(spine, spineStore(t)); err != nil {
		t.Fatal(err)
	}
	// checkMeta bounds one CheckMeta per directory, as measured: the
	// meta block's shape slices and per-shard dictionaries, plus one
	// class map per (partition, provider) peering tally, folded in place.
	for _, tc := range []struct {
		dir       string
		checkMeta float64
	}{{goldenDir, 34}, {written, 51}, {spine, 37}} {
		dir := tc.dir
		meta, err := os.ReadFile(filepath.Join(dir, MetaFile))
		if err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(10, func() {
			if err := CheckMeta(meta); err != nil {
				t.Fatal(err)
			}
		}); got > tc.checkMeta {
			t.Errorf("%s: CheckMeta allocates %v times, want ≤ %v", dir, got, tc.checkMeta)
		}
		r, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var blocks, groups int
		for i, ss := range r.shards {
			blocks += len(ss.entries)
			groups += len(ss.groups)
			raw, err := os.ReadFile(filepath.Join(dir, ShardFile(i)))
			if err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(10, func() {
				if err := CheckShard(raw); err != nil {
					t.Fatal(err)
				}
			})
			if got > checkShardAllocs {
				t.Errorf("%s %s: CheckShard allocates %v times over %d blocks, want ≤ %d",
					dir, ShardFile(i), got, len(ss.entries), checkShardAllocs)
			}
		}
		shards := len(r.shards)
		r.Close()
		// 64 covers the meta file's parse; per shard, the mapping and the
		// index's fixed arrays; per group, at most one dictionary string —
		// a dictionary holds the group names and a few platforms.
		bound := 64 + 32*shards + groups
		got := testing.AllocsPerRun(10, func() {
			r, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			r.Close()
		})
		if got > float64(bound) {
			t.Errorf("%s: Open allocates %v times for %d shards, %d groups, %d blocks; want ≤ %d",
				dir, got, shards, groups, blocks, bound)
		}
	}
}

var benchAnswer int

// BenchmarkMount times a mount layer by layer on a spine-shaped
// directory — open (map, parse, index), check (CheckMeta and CheckShard
// of every file, read as the spine workload reads them) and the first
// latency-map from a fresh Reader — the three parts of the spine
// workload's mount latency.
func BenchmarkMount(b *testing.B) {
	dir := b.TempDir()
	if err := Write(dir, spineStore(b)); err != nil {
		b.Fatal(err)
	}
	open := func() *Reader {
		r, err := Open(dir, Options{})
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	r := open()
	shards := r.Summary().Shards
	r.Close()
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			open().Close()
		}
	})
	b.Run("check", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for f := -1; f < shards; f++ {
				name, check := MetaFile, CheckMeta
				if f >= 0 {
					name, check = ShardFile(f), CheckShard
				}
				raw, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					b.Fatal(err)
				}
				if err := check(raw); err != nil {
					b.Fatal(fmt.Errorf("%s: %w", name, err))
				}
			}
		}
	})
	b.Run("first-answer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r := open()
			b.StartTimer()
			benchAnswer = len(r.LatencyMap(10))
			b.StopTimer()
			r.Close()
			b.StartTimer()
		}
	})
}
