package segment

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/store"
)

// partitionRange is the window covering partitions [i, j) of a store
// whose partitions span `span` cycles each: the first is unbounded
// below and the last unbounded above, like the store's own windows.
func partitionRange(i, j, parts, span int) store.Window {
	w := store.Window{From: i * span, To: j * span}
	if j == parts {
		w.To = 0
	}
	return w
}

// everyPartitionRange lists partitionRange for every 0 ≤ i < j ≤ parts.
func everyPartitionRange(parts, span int) []store.Window {
	var out []store.Window
	for i := 0; i < parts; i++ {
		for j := i + 1; j <= parts; j++ {
			out = append(out, partitionRange(i, j, parts, span))
		}
	}
	return out
}

// sketchAnswers asks one reader every sketch-served figure over w.
func sketchAnswers(r *Reader, w store.Window) []any {
	qs, n, ok := r.GroupQuantiles(store.DimCountry, "speedchecker", "DE", w, 0.1, 0.5, 0.9)
	return []any{
		r.LatencyMapWindow(5, w),
		r.ContinentCDFsWindow("speedchecker", w),
		r.ContinentCDFsWindow("atlas", w),
		r.PlatformDiffWindow(w),
		qs, n, ok,
	}
}

func writeFixture(t *testing.T, shards, parts, cycles, perCell int) string {
	t.Helper()
	dir := t.TempDir()
	if err := Write(dir, buildStore(t, shards, parts, cycles, perCell)); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestSketchCacheImmutable asks a first query, then every contiguous
// partition range and both halves of every aligned changepoint — each
// of which merges cached nodes into its own answer — and requires the
// first query to answer exactly as it first did. A merge that wrote
// into a cached digest (say, into the root) changes that answer.
func TestSketchCacheImmutable(t *testing.T) {
	const parts, span = 5, 3
	r, err := Open(writeFixture(t, 4, parts, parts*span, 8), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	windows := everyPartitionRange(parts, span)
	first := make([][]any, len(windows))
	for pass := 0; pass < 2; pass++ {
		for i, w := range windows {
			got := sketchAnswers(r, w)
			if pass == 0 {
				first[i] = got
			} else if !reflect.DeepEqual(got, first[i]) {
				t.Errorf("window %+v answers differently after the other queries ran", w)
			}
		}
		for at := span; at < parts*span; at += span {
			for _, width := range []int{0, span, 2 * span} {
				r.Changepoint("speedchecker", at, width)
			}
		}
	}
}

// TestSketchNodesBuiltOnce hits one fresh reader from 32 goroutines
// with mixed windows (run it under -race). Afterwards every sketch
// block has been decoded exactly once — the read counter equals the
// file's sketch block count — a replay decodes nothing more, the
// gauges show what the mount holds, and Close takes it off them.
func TestSketchNodesBuiltOnce(t *testing.T) {
	const parts, span = 5, 3
	dir := writeFixture(t, 4, parts, parts*span, 6)
	reg := obs.NewRegistry()
	r, err := Open(dir, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	sketchBlocks := 0
	for _, ss := range r.shards {
		for _, e := range ss.entries {
			if e.kind == BlockSketch {
				sketchBlocks++
			}
		}
	}
	windows := everyPartitionRange(parts, span)
	storm := func() {
		var wg sync.WaitGroup
		for g := 0; g < 32; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range windows {
					w := windows[(i*7+g)%len(windows)]
					sketchAnswers(r, w)
					r.GroupQuantiles(store.DimCountry, "atlas", "DE", w, 0.5)
					r.Changepoint("speedchecker", span*(1+g%(parts-1)), span*(g%3))
					r.Changepoint("atlas", span*(1+i%(parts-1)), 0)
				}
			}(g)
		}
		wg.Wait()
	}
	storm()
	read := reg.SumCounters("segment_blocks_read_total")
	if read != uint64(sketchBlocks) {
		t.Errorf("%d blocks decoded for %d sketch blocks in the file", read, sketchBlocks)
	}
	nodes, held := r.mNodes.Load(), r.mCacheBytes.Load()
	// Every leaf was asked for; the pair trees' roots never were.
	if lo, hi := int64(len(r.trees)*parts), int64(len(r.trees)*(2*parts-1)); nodes < lo || nodes > hi {
		t.Errorf("segment_sketch_nodes = %d, want %d (every leaf) to %d (every node) for %d trees", nodes, lo, hi, len(r.trees))
	}
	if held <= 0 {
		t.Errorf("segment_sketch_cache_bytes = %d with every node built", held)
	}
	storm()
	if again := reg.SumCounters("segment_blocks_read_total"); again != read {
		t.Errorf("a replay decoded %d more blocks", again-read)
	}
	if r.mNodes.Load() != nodes || r.mCacheBytes.Load() != held {
		t.Errorf("a replay moved the cache gauges: %d nodes, %d bytes", r.mNodes.Load(), r.mCacheBytes.Load())
	}
	if errs := reg.SumCounters("segment_block_errors_total"); errs != 0 {
		t.Errorf("%d block errors on a valid directory", errs)
	}
	r.Close()
	if r.mNodes.Load() != 0 || r.mCacheBytes.Load() != 0 {
		t.Errorf("after Close: %d nodes, %d bytes on the gauges", r.mNodes.Load(), r.mCacheBytes.Load())
	}
}

// TestSketchReplayDeterministic mounts one directory twice and asks the
// same questions in opposite orders: which nodes exist when a query
// arrives differs, the answers may not.
func TestSketchReplayDeterministic(t *testing.T) {
	const parts, span = 13, 2
	dir := writeFixture(t, 4, parts, parts*span, 6)
	a, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	type question struct {
		w         store.Window
		at, width int
	}
	var asks []question
	for i, w := range everyPartitionRange(parts, span) {
		asks = append(asks, question{w: w, at: span * (1 + i%(parts-1)), width: span * (i % 4)})
	}
	ask := func(r *Reader, q question) []any {
		return append(sketchAnswers(r, q.w), r.Changepoint("speedchecker", q.at, q.width))
	}
	fromA := make([][]any, len(asks))
	for i, q := range asks {
		fromA[i] = ask(a, q)
	}
	for i := len(asks) - 1; i >= 0; i-- {
		if got := ask(b, asks[i]); !reflect.DeepEqual(got, fromA[i]) {
			t.Errorf("question %d (%+v) answers differently on a second mount asked in reverse", i, asks[i])
		}
	}
}

// TestSwappedPartitionZonesRejected forges the footer lie the sketch
// tree cannot survive: every frame intact and checksummed, every block
// true to its own entry, but two partitions' cycle zones exchanged, so
// a window picks the partition holding the other half of the campaign
// (a reader that mounts it answers cycles 0..3 from the rows of 4..7).
func TestSwappedPartitionZonesRejected(t *testing.T) {
	forge := func(zone0, zone1 [2]int) []byte {
		sw := newShardWriter(2)
		sw.setPartition(0, 4, zone0[0], zone0[1])
		sw.setPartition(1, 4, zone1[0], zone1[1])
		sw.addGroup(0, store.DimCountry, "speedchecker", "DE", []float64{10, 11, 12, 13}, []int32{0, 1, 2, 3})
		sw.addGroup(1, store.DimCountry, "speedchecker", "DE", []float64{50, 51, 52, 53}, []int32{4, 5, 6, 7})
		return sw.finish()
	}
	if err := CheckShard(forge([2]int{0, 3}, [2]int{4, 7})); err != nil {
		t.Fatalf("honest shard rejected: %v", err)
	}
	dir := t.TempDir()
	b := store.NewBuilder(store.Options{Shards: 1, Partitions: 2, Cycles: 8})
	if err := Write(dir, b.Seal()); err != nil {
		t.Fatal(err)
	}
	for name, img := range map[string][]byte{
		"swapped":  forge([2]int{4, 7}, [2]int{0, 3}),
		"touching": forge([2]int{0, 4}, [2]int{4, 7}),
	} {
		if err := CheckShard(img); !errors.Is(err, ErrZoneMap) {
			t.Errorf("%s zones: CheckShard = %v, want ErrZoneMap", name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, ShardFile(0)), img, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, Options{})
		if !errors.Is(err, ErrZoneMap) {
			t.Errorf("%s zones: Open = %v, want ErrZoneMap", name, err)
		}
		if err == nil {
			r.Close()
		}
	}
}

// TestRaggedWindowAnswersExactly pins alignedRun where shards disagree
// about a partition: its zone inside the window in one shard and outside
// it in another (a tree leaf is all shards or none), or a partition
// outside the window lying between two inside it (a cover is one run).
// Both take the exact path; so does a cut, as ever.
func TestRaggedWindowAnswersExactly(t *testing.T) {
	type zone struct{ part, min, max int }
	for _, tc := range []struct {
		name   string
		parts  int
		shards [][]zone
		ask    map[store.Window]bool // window → aligned
	}{
		{"ragged", 2, [][]zone{{{0, 0, 1}}, {{0, 2, 3}}}, map[store.Window]bool{
			{}:        true,
			{To: 4}:   true,
			{To: 2}:   false, // shard 0 inside, shard 1 outside
			{From: 2}: false, // the reverse
			{From: 1}: false, // cuts shard 0
		}},
		{"split run", 3, [][]zone{{{0, 0, 1}, {2, 4, 5}}, {{1, 10, 11}}}, map[store.Window]bool{
			{}:               true,
			{To: 6}:          false, // partitions 0 and 2, partition 1 between them outside
			{To: 2}:          true,
			{From: 4, To: 6}: true,
			{From: 4}:        true, // partitions 1 and 2
		}},
	} {
		dir := t.TempDir()
		empty := store.NewBuilder(store.Options{Shards: len(tc.shards), Partitions: tc.parts, Cycles: 12}).Seal()
		if err := Write(dir, empty); err != nil {
			t.Fatal(err)
		}
		for shard, zones := range tc.shards {
			sw := newShardWriter(tc.parts)
			for _, z := range zones {
				sw.setPartition(z.part, 2, z.min, z.max)
				sw.addGroup(z.part, store.DimCountry, "speedchecker", "DE", []float64{10, 11}, []int32{int32(z.min), int32(z.max)})
			}
			if err := os.WriteFile(filepath.Join(dir, ShardFile(shard)), sw.finish(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		r, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for w, want := range tc.ask {
			if _, _, ok := r.alignedRun(w); ok != want {
				t.Errorf("%s: window %+v: aligned = %v, want %v", tc.name, w, ok, want)
			}
			// Aligned or not, the rows the window holds are all counted.
			rows := 0
			for _, zones := range tc.shards {
				for _, z := range zones {
					for _, c := range []int{z.min, z.max} {
						if w.Contains(c) {
							rows++
						}
					}
				}
			}
			if got := r.LatencyMapWindow(1, w); rows > 0 && (len(got) != 1 || got[0].Samples != rows) {
				t.Errorf("%s: window %+v: latency map %+v, want one country of %d samples", tc.name, w, got, rows)
			}
		}
		r.Close()
	}
}

// BenchmarkReaderSketchFigures holds the per-figure cost of the sketch
// path on a directory shaped like the repository benchmark's (4 shards
// × 4 partitions, 12 cycles, every country × ten providers, ~60 000
// rows): the first touch of a fresh mount, which decodes and pre-merges
// every tree, and each figure warm on the whole campaign (the root as it
// stands), on a window two nodes cover (one merge per group and query)
// and on a single partition (a leaf).
func BenchmarkReaderSketchFigures(b *testing.B) {
	const parts, span = 4, 3
	dir := b.TempDir()
	if err := Write(dir, benchStore(b, 4, parts, parts*span, 60000)); err != nil {
		b.Fatal(err)
	}
	b.Run("first-touch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r, err := Open(dir, Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			r.LatencyMap(5)
			r.ContinentCDFs("speedchecker")
			r.PlatformDiff()
			r.Changepoint("speedchecker", 2*span, 0)
			b.StopTimer()
			r.Close()
			b.StartTimer()
		}
	})
	r, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	for _, win := range []struct {
		name      string
		w         store.Window
		at, width int // a changepoint whose halves are covered alike
	}{
		{"whole", store.Window{}, 2 * span, 0},                               // halves: the root's two children
		{"two-nodes", partitionRange(1, 3, parts, span), span, 0},            // after: leaf 1 + node [2, 4)
		{"one-partition", partitionRange(2, 3, parts, span), 2 * span, span}, // halves: leaves 1 and 2
	} {
		for _, fig := range []struct {
			name string
			run  func()
		}{
			{"latency-map", func() { r.LatencyMapWindow(5, win.w) }},
			{"cdf", func() { r.ContinentCDFsWindow("speedchecker", win.w) }},
			{"platform-diff", func() { r.PlatformDiffWindow(win.w) }},
			{"changepoint", func() { r.Changepoint("speedchecker", win.at, win.width) }},
		} {
			b.Run(fmt.Sprintf("%s/%s", win.name, fig.name), func(b *testing.B) {
				fig.run() // build whatever node this window still needs
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fig.run()
				}
			})
		}
	}
}

// benchStore seals a store shaped like the repository benchmark's
// fixture: every country (sizes falling off as 1/rank), ten providers,
// one row in five on atlas, cycles uniform.
func benchStore(tb testing.TB, shards, partitions, cycles, rows int) *store.Store {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	b := store.NewBuilder(store.Options{Shards: shards, Partitions: partitions, Cycles: cycles})
	countries := geo.AllCountries()
	var norm float64
	for i := range countries {
		norm += 1 / float64(i+1)
	}
	for i, c := range countries {
		base := 20 + 80*rng.Float64()
		for k := int(float64(rows) / float64(i+1) / norm); k > 0; k-- {
			platform := "speedchecker"
			if k%5 == 4 {
				platform = "atlas"
			}
			b.Add(store.Sample{
				Platform: platform, Country: c.Code, Continent: c.Continent,
				Provider: fmt.Sprintf("P%d", rng.Intn(10)),
				RTTms:    base * (0.75 + 0.25*(rng.Float64()+rng.Float64())),
				Cycle:    rng.Intn(cycles),
			})
		}
	}
	return b.Seal()
}
