package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/binfmt"
	"repro/internal/pipeline"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/store"
)

// MetaFile is the store-level metadata file inside a segment
// directory; shard files are named by ShardFile.
const MetaFile = "meta.cseg"

// ShardFile names shard i's segment file.
func ShardFile(i int) string { return fmt.Sprintf("shard-%04d.cseg", i) }

// Write serializes a sealed store into dir as one file per shard plus
// the meta file, written last, creating dir if needed. The output is a
// deterministic function of the sealed store: the store dumps in
// canonical order and every encoding choice is value-driven.
func Write(dir string, st *store.Store) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sum := st.Summary()
	mw := &metaWriter{summary: sum}
	var sw *shardWriter
	shardFiles := make([][]byte, 0, sum.Shards)
	st.Dump(store.DumpVisitor{
		Shard: func(shard, rows int, providers []string, platformRows map[string]int, rtt *stats.Welford) {
			mw.addShard(rows, providers, platformRows, rtt)
			if sw != nil {
				shardFiles = append(shardFiles, sw.finish())
			}
			sw = newShardWriter(sum.Partitions)
		},
		Partition: func(shard, part int, w store.Window, minCycle, maxCycle, rows int) {
			if shard == 0 {
				mw.windows = append(mw.windows, w)
			}
			sw.setPartition(part, rows, minCycle, maxCycle)
		},
		Group: func(shard, part int, dim store.Dim, platform, name string, rtt []float64, cycle []int32) {
			sw.addGroup(part, dim, platform, name, rtt, cycle)
		},
		Peering: func(part int, w store.Window, counts map[string]map[pipeline.Class]int) {
			mw.addPeering(part, counts)
		},
	})
	if sw != nil {
		shardFiles = append(shardFiles, sw.finish())
	}
	for len(shardFiles) < sum.Shards { // stores with zero shards dumped
		shardFiles = append(shardFiles, newShardWriter(sum.Partitions).finish())
	}
	// Open starts from the meta file, so it is removed first and written
	// last: a write that dies on any shard leaves a directory Open
	// refuses, never one it starts mounting.
	metaPath := filepath.Join(dir, MetaFile)
	if err := os.Remove(metaPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	for i, buf := range shardFiles {
		if err := os.WriteFile(filepath.Join(dir, ShardFile(i)), buf, 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(metaPath, mw.finish(), 0o644)
}

// metaWriter accumulates the meta file: store shape, partition
// windows, per-shard summary moments, and peering tallies.
type metaWriter struct {
	summary store.Summary
	windows []store.Window
	shards  []byte // concatenated per-shard meta sections
	peering []byte // concatenated peering block frames
}

func (mw *metaWriter) addShard(rows int, providers []string, platformRows map[string]int, rtt *stats.Welford) {
	b := binary.AppendUvarint(mw.shards, uint64(rows))
	n, mean, m2, min, max := rtt.Moments()
	b = binary.AppendUvarint(b, uint64(n))
	b = binfmt.AppendFloat64(b, mean)
	b = binfmt.AppendFloat64(b, m2)
	b = binfmt.AppendFloat64(b, min)
	b = binfmt.AppendFloat64(b, max)
	b = binary.AppendUvarint(b, uint64(len(providers)))
	for _, p := range providers {
		b = binfmt.AppendString(b, p)
	}
	plats := make([]string, 0, len(platformRows))
	for p := range platformRows {
		plats = append(plats, p)
	}
	sort.Strings(plats)
	b = binary.AppendUvarint(b, uint64(len(plats)))
	for _, p := range plats {
		b = binfmt.AppendString(b, p)
		b = binary.AppendUvarint(b, uint64(platformRows[p]))
	}
	mw.shards = b
}

func (mw *metaWriter) addPeering(part int, counts map[string]map[pipeline.Class]int) {
	body := binary.AppendUvarint([]byte{byte(BlockPeering)}, uint64(part))
	provs := make([]string, 0, len(counts))
	for p := range counts {
		provs = append(provs, p)
	}
	sort.Strings(provs)
	body = binary.AppendUvarint(body, uint64(len(provs)))
	for _, p := range provs {
		body = binfmt.AppendString(body, p)
		classes := make([]int, 0, len(counts[p]))
		for cl := range counts[p] {
			classes = append(classes, int(cl))
		}
		sort.Ints(classes)
		body = binary.AppendUvarint(body, uint64(len(classes)))
		for _, cl := range classes {
			body = binary.AppendUvarint(body, uint64(cl))
			body = binary.AppendUvarint(body, uint64(counts[p][pipeline.Class(cl)]))
		}
	}
	mw.peering = binfmt.AppendFrame(mw.peering, body)
}

func (mw *metaWriter) finish() []byte {
	body := binary.AppendUvarint([]byte{byte(BlockMeta)}, uint64(mw.summary.Shards))
	body = binary.AppendUvarint(body, uint64(mw.summary.Partitions))
	body = binary.AppendUvarint(body, uint64(mw.summary.Cycles))
	body = binary.AppendUvarint(body, uint64(mw.summary.Rows))
	for _, w := range mw.windows {
		body = binfmt.AppendZigzag(body, int64(w.From))
		body = binfmt.AppendZigzag(body, int64(w.To))
	}
	body = append(body, mw.shards...)
	out := append([]byte(Magic), FormatVersion)
	out = binfmt.AppendFrame(out, body)
	return append(out, mw.peering...)
}

// partZone is one partition's footer entry in a shard file.
type partZone struct {
	rows     int
	minCycle int
	maxCycle int
}

// entry is one indexed block in a shard file's footer.
type entry struct {
	kind       BlockKind
	dim        store.Dim
	platformID uint32
	nameID     uint32
	part       int
	rows       int
	minCycle   int
	maxCycle   int
	minRTT     float64
	maxRTT     float64
	offset     int
	length     int
}

type shardWriter struct {
	buf     []byte
	dict    []string
	dictIDs map[string]uint32
	parts   []partZone
	entries []entry
}

func newShardWriter(partitions int) *shardWriter {
	return &shardWriter{
		buf:     append([]byte(Magic), FormatVersion),
		dictIDs: map[string]uint32{},
		parts:   make([]partZone, partitions),
	}
}

// intern assigns 1-based dictionary ids in first-use order — the dump
// order is canonical, so ids are deterministic.
func (sw *shardWriter) intern(s string) uint32 {
	if id, ok := sw.dictIDs[s]; ok {
		return id
	}
	sw.dict = append(sw.dict, s)
	id := uint32(len(sw.dict))
	sw.dictIDs[s] = id
	return id
}

func (sw *shardWriter) setPartition(part, rows, minCycle, maxCycle int) {
	sw.parts[part] = partZone{rows: rows, minCycle: minCycle, maxCycle: maxCycle}
}

func (sw *shardWriter) addGroup(part int, dim store.Dim, platform, name string, rtt []float64, cycle []int32) {
	if len(rtt) == 0 {
		return
	}
	pid, nid := sw.intern(platform), sw.intern(name)
	groupMin, groupMax := int(cycle[0]), int(cycle[0])
	for i := 0; i < len(rtt); i += MaxBlockRows {
		end := i + MaxBlockRows
		if end > len(rtt) {
			end = len(rtt)
		}
		blkRTT, blkCyc := rtt[i:end], cycle[i:end]
		minC, maxC := int(blkCyc[0]), int(blkCyc[0])
		for _, c := range blkCyc[1:] {
			if int(c) < minC {
				minC = int(c)
			}
			if int(c) > maxC {
				maxC = int(c)
			}
		}
		if minC < groupMin {
			groupMin = minC
		}
		if maxC > groupMax {
			groupMax = maxC
		}
		offset := len(sw.buf)
		sw.buf = binfmt.AppendFrame(sw.buf, encodeColumn(blkRTT, blkCyc))
		sw.entries = append(sw.entries, entry{
			kind: BlockColumn, dim: dim, platformID: pid, nameID: nid,
			part: part, rows: end - i, minCycle: minC, maxCycle: maxC,
			minRTT: blkRTT[0], maxRTT: blkRTT[len(blkRTT)-1],
			offset: offset, length: len(sw.buf) - offset,
		})
	}
	sk := sketch.New(sketch.DefaultCompression)
	for _, x := range rtt {
		sk.Add(x)
	}
	offset := len(sw.buf)
	sw.buf = binfmt.AppendFrame(sw.buf, sk.AppendBinary([]byte{byte(BlockSketch)}))
	sw.entries = append(sw.entries, entry{
		kind: BlockSketch, dim: dim, platformID: pid, nameID: nid,
		part: part, rows: len(rtt), minCycle: groupMin, maxCycle: groupMax,
		minRTT: rtt[0], maxRTT: rtt[len(rtt)-1],
		offset: offset, length: len(sw.buf) - offset,
	})
}

// RTT column encodings: the flag byte after a column block's row count.
const (
	colDelta = 0 // binfmt.AppendFloatDeltas
	colRaw   = 1 // binfmt.AppendFloats
)

// encodeColumn serializes one column block's payload: kind, row count,
// the RTTs and the cycles. RTTs come in sorted ascending; when their
// bit patterns are monotone (always true for non-negative values) they
// delta-code, otherwise a flag switches the whole block to raw values.
func encodeColumn(rtt []float64, cycle []int32) []byte {
	body := binary.AppendUvarint([]byte{byte(BlockColumn)}, uint64(len(rtt)))
	if binfmt.MonotoneBits(rtt) {
		body = binfmt.AppendFloatDeltas(append(body, colDelta), rtt)
	} else {
		body = binfmt.AppendFloats(append(body, colRaw), rtt)
	}
	prev := int64(0)
	for _, c := range cycle {
		body = binfmt.AppendZigzag(body, int64(c)-prev)
		prev = int64(c)
	}
	return body
}

// finish writes the dictionary, footer and tail, returning the
// complete file image.
func (sw *shardWriter) finish() []byte {
	dict := binary.AppendUvarint([]byte{byte(BlockDict)}, uint64(len(sw.dict)))
	for _, s := range sw.dict {
		dict = binfmt.AppendString(dict, s)
	}
	dictOffset := len(sw.buf)
	sw.buf = binfmt.AppendFrame(sw.buf, dict)

	footer := binary.AppendUvarint([]byte{byte(BlockFooter)}, uint64(dictOffset))
	footer = binary.AppendUvarint(footer, uint64(len(sw.parts)))
	for _, p := range sw.parts {
		footer = binary.AppendUvarint(footer, uint64(p.rows))
		footer = binfmt.AppendZigzag(footer, int64(p.minCycle))
		footer = binfmt.AppendZigzag(footer, int64(p.maxCycle))
	}
	footer = binary.AppendUvarint(footer, uint64(len(sw.entries)))
	for _, e := range sw.entries {
		footer = append(footer, byte(e.kind), byte(e.dim))
		footer = binary.AppendUvarint(footer, uint64(e.platformID))
		footer = binary.AppendUvarint(footer, uint64(e.nameID))
		footer = binary.AppendUvarint(footer, uint64(e.part))
		footer = binary.AppendUvarint(footer, uint64(e.rows))
		footer = binfmt.AppendZigzag(footer, int64(e.minCycle))
		footer = binfmt.AppendZigzag(footer, int64(e.maxCycle))
		footer = binfmt.AppendFloat64(footer, e.minRTT)
		footer = binfmt.AppendFloat64(footer, e.maxRTT)
		footer = binary.AppendUvarint(footer, uint64(e.offset))
		footer = binary.AppendUvarint(footer, uint64(e.length))
	}
	footerOffset := len(sw.buf)
	sw.buf = binfmt.AppendFrame(sw.buf, footer)

	tail := binary.LittleEndian.AppendUint64(nil, uint64(footerOffset))
	tail = binary.LittleEndian.AppendUint32(tail, binfmt.Checksum(tail))
	return append(append(sw.buf, tail...), tailMagic...)
}
