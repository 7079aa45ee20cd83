package segment

import (
	"bytes"
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/geo"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// buildStore synthesizes a sealed store with both platforms, several
// countries×providers, peering tallies, and samples spread over the
// cycle axis — enough structure to exercise every figure query.
func buildStore(tb testing.TB, shards, partitions, cycles, perCell int) *store.Store {
	tb.Helper()
	rng := rand.New(rand.NewSource(1234))
	b := store.NewBuilder(store.Options{Shards: shards, Partitions: partitions, Cycles: cycles})
	countries := []struct {
		code string
		base float64
	}{
		{"DE", 18}, {"GB", 24}, {"US", 35}, {"BR", 62}, {"JP", 41}, {"ZA", 88},
	}
	providers := []string{"AMZN", "GCP", "MSFT"}
	for _, c := range countries {
		meta, ok := geo.CountryByCode(c.code)
		if !ok {
			tb.Fatalf("unknown fixture country %s", c.code)
		}
		for _, platform := range []string{"speedchecker", "atlas"} {
			offset := 0.0
			if platform == "atlas" {
				offset = -2.5
			}
			for _, prov := range providers {
				for cyc := 0; cyc < cycles; cyc++ {
					for k := 0; k < perCell; k++ {
						b.Add(store.Sample{
							Platform: platform, Country: c.code, Continent: meta.Continent,
							Provider: prov,
							RTTms:    c.base + offset + 30*rng.Float64(),
							Cycle:    cyc,
						})
					}
				}
			}
		}
	}
	for cyc := 0; cyc < cycles; cyc++ {
		b.AddPeeringCountsAt(cyc, map[string]map[pipeline.Class]int{
			"AMZN": {pipeline.ClassDirect: 5 + cyc, pipeline.ClassDirectIXP: 2},
			"GCP":  {pipeline.ClassDirect: 3, pipeline.ClassDirectIXP: 4 + cyc%3},
		})
	}
	return b.Seal()
}

var testWindows = []store.Window{
	{},                 // unwindowed
	{From: 0, To: 16},  // explicit full window
	{From: 8},          // open above
	{To: 4},            // open below
	{From: 3, To: 11},  // interior, cuts partitions
	{From: 7, To: 8},   // single cycle
	{From: 40, To: 50}, // past the end: empty
}

// TestExactRoundTripBitIdentical is the acceptance proof: for every
// figure query, windowed and unwindowed, a store sealed → written →
// reopened from mmap in exact mode answers bit-identically to the
// in-memory store.
func TestExactRoundTripBitIdentical(t *testing.T) {
	const cycles = 16
	for _, shards := range []int{1, 4} {
		for _, parts := range []int{1, 4, 16} {
			st := buildStore(t, shards, parts, cycles, 4)
			dir := t.TempDir()
			if err := Write(dir, st); err != nil {
				t.Fatalf("shards=%d parts=%d: Write: %v", shards, parts, err)
			}
			r, err := Open(dir, Options{Exact: true})
			if err != nil {
				t.Fatalf("shards=%d parts=%d: Open: %v", shards, parts, err)
			}
			defer r.Close()

			if got, want := r.Summary(), st.Summary(); !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d parts=%d: Summary:\n got %+v\nwant %+v", shards, parts, got, want)
			}
			for _, w := range testWindows {
				if got, want := r.LatencyMapWindow(5, w), st.LatencyMapWindow(5, w); !reflect.DeepEqual(got, want) {
					t.Errorf("shards=%d parts=%d w=%+v: LatencyMap diverges", shards, parts, w)
				}
				for _, platform := range []string{"speedchecker", "atlas"} {
					if got, want := r.ContinentCDFsWindow(platform, w), st.ContinentCDFsWindow(platform, w); !reflect.DeepEqual(got, want) {
						t.Errorf("shards=%d parts=%d w=%+v: ContinentCDFs(%s) diverges", shards, parts, w, platform)
					}
				}
				if got, want := r.PlatformDiffWindow(w), st.PlatformDiffWindow(w); !reflect.DeepEqual(got, want) {
					t.Errorf("shards=%d parts=%d w=%+v: PlatformDiff diverges", shards, parts, w)
				}
				if got, want := r.PeeringSharesWindow(w), st.PeeringSharesWindow(w); !reflect.DeepEqual(got, want) {
					t.Errorf("shards=%d parts=%d w=%+v: PeeringShares diverges", shards, parts, w)
				}
			}
			for _, cp := range []struct{ at, width int }{{8, 0}, {8, 4}, {5, 3}, {1, 0}} {
				got := r.Changepoint("speedchecker", cp.at, cp.width)
				want := st.Changepoint("speedchecker", cp.at, cp.width)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("shards=%d parts=%d: Changepoint(%d, %d) diverges", shards, parts, cp.at, cp.width)
				}
			}
		}
	}
}

// TestWriteDeterministic pins that writing the same sealed store twice
// produces byte-identical files — the format has no hidden
// nondeterminism (map order, timestamps, addresses).
func TestWriteDeterministic(t *testing.T) {
	st := buildStore(t, 4, 4, 16, 3)
	dirA, dirB := t.TempDir(), t.TempDir()
	if err := Write(dirA, st); err != nil {
		t.Fatal(err)
	}
	if err := Write(dirB, st); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dirA, "*.cseg"))
	if err != nil || len(names) != 5 { // meta + 4 shards
		t.Fatalf("glob: %v (%d files)", err, len(names))
	}
	for _, name := range names {
		a, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, filepath.Base(name)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between two writes of the same store", filepath.Base(name))
		}
	}
}

// TestWriteFailureLeavesNoMeta pins the publication order: meta.cseg is
// what Open starts from, so a write that dies on a shard must leave the
// directory without one — including the stale meta of an earlier
// complete write.
func TestWriteFailureLeavesNoMeta(t *testing.T) {
	st := buildStore(t, 4, 4, 16, 3)
	dir := t.TempDir()
	if err := Write(dir, st); err != nil {
		t.Fatal(err)
	}
	// A directory where shard 1's file belongs makes that write fail.
	shard1 := filepath.Join(dir, ShardFile(1))
	if err := os.Remove(shard1); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(shard1, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Write(dir, st); err == nil {
		t.Fatal("Write succeeded over an unwritable shard path")
	}
	if _, err := os.Stat(filepath.Join(dir, MetaFile)); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("stat %s after a failed write: %v, want not-exist", MetaFile, err)
	}
	if rd, err := Open(dir, Options{}); err == nil {
		rd.Close()
		t.Error("Open mounted a directory whose write failed")
	}
}

// TestCheckRejectsCorruption walks every byte of a valid shard file,
// flips it, and requires CheckShard to fail (or, for bytes the footer
// never references, at worst still parse) without panicking. It then
// checks targeted forgeries: truncation at every length, and a CRC
// forgery where the block body and its checksum are rewritten
// consistently but the footer zone map now lies.
func TestCheckRejectsCorruption(t *testing.T) {
	st := buildStore(t, 1, 2, 8, 2)
	dir := t.TempDir()
	if err := Write(dir, st); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, ShardFile(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckShard(raw); err != nil {
		t.Fatalf("valid shard rejected: %v", err)
	}
	metaRaw, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckMeta(metaRaw); err != nil {
		t.Fatalf("valid meta rejected: %v", err)
	}

	// Truncations must all be rejected.
	for _, cut := range []int{0, 1, 4, 5, len(raw) / 2, len(raw) - 1} {
		if err := CheckShard(raw[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Bit flips: every flipped byte must either fail a check or leave
	// the file structurally valid (a byte in unreferenced slack) — but
	// never panic. Step through the file to keep the test fast.
	for i := 0; i < len(raw); i += 7 {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x40
		_ = CheckShard(mut) // must not panic; error expected for almost all i
	}
	// Flipping a byte inside the first column block's payload must be
	// caught by its CRC specifically.
	ss, err := parseShard(raw)
	if err != nil {
		t.Fatal(err)
	}
	var col entry
	for _, e := range ss.entries {
		if e.kind == BlockColumn {
			col = e
			break
		}
	}
	if col.length == 0 {
		t.Fatal("no column entry found")
	}
	mut := append([]byte(nil), raw...)
	mut[col.offset+col.length/2] ^= 0x01
	if err := CheckShard(mut); err == nil {
		t.Error("column payload flip accepted")
	}
}

// TestZoneMapLieDetected forges a shard whose footer zone map promises
// a cycle range the block data escapes — with valid CRCs everywhere —
// and requires the reader to refuse the block.
func TestZoneMapLieDetected(t *testing.T) {
	sw := newShardWriter(1)
	sw.setPartition(0, 4, 0, 10)
	sw.addGroup(0, store.DimCountry, "speedchecker", "DE",
		[]float64{10, 11, 12, 13}, []int32{0, 3, 7, 9})
	// Forge: shrink the recorded cycle zone of every entry so the real
	// cycles (up to 9) escape it.
	for i := range sw.entries {
		sw.entries[i].maxCycle = 2
	}
	img := sw.finish()
	if err := CheckShard(img); err == nil {
		t.Fatal("zone-map lie accepted")
	} else if !errors.Is(err, ErrZoneMap) {
		t.Fatalf("zone-map lie surfaced as %v, want ErrZoneMap", err)
	}

	// Same forgery on the RTT zone map.
	sw = newShardWriter(1)
	sw.setPartition(0, 4, 0, 10)
	sw.addGroup(0, store.DimCountry, "speedchecker", "DE",
		[]float64{10, 11, 12, 13}, []int32{0, 3, 7, 9})
	for i := range sw.entries {
		sw.entries[i].maxRTT = 11
	}
	if err := CheckShard(sw.finish()); err == nil || !errors.Is(err, ErrZoneMap) {
		t.Fatalf("RTT zone lie: got %v, want ErrZoneMap", err)
	}
}

// TestUsageAccountsForEveryByte pins the -check breakdown: the block
// kinds of a directory sum to its size, and the dimensions to its
// column and sketch blocks.
func TestUsageAccountsForEveryByte(t *testing.T) {
	st := buildStore(t, 4, 4, 16, 3)
	dir := t.TempDir()
	if err := Write(dir, st); err != nil {
		t.Fatal(err)
	}
	var u Usage
	var size int64
	for i := -1; i < 4; i++ {
		name, add := MetaFile, u.AddMeta
		if i >= 0 {
			name, add = ShardFile(i), u.AddShard
		}
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := add(raw); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		size += int64(len(raw))
	}
	var kinds, dims int64
	for _, n := range u.ByKind {
		kinds += n
	}
	for _, n := range u.ByDim {
		dims += n
	}
	if kinds != size {
		t.Errorf("block kinds sum to %d bytes, files hold %d", kinds, size)
	}
	if want := u.ByKind[BlockColumn] + u.ByKind[BlockSketch]; dims != want || dims == 0 {
		t.Errorf("dimensions sum to %d bytes, column+sketch blocks to %d", dims, want)
	}
	for kind := BlockMeta; kind <= BlockFooter; kind++ {
		if u.ByKind[kind] == 0 {
			t.Errorf("no bytes accounted to %v blocks", kind)
		}
	}
}
