package segment

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/binfmt"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/store"
)

// Options configures a segment reader.
type Options struct {
	// Exact forces every figure query down the exact column-decode
	// path; by default queries answer from the merged quantile
	// sketches whenever the query window is partition-aligned.
	Exact bool
	// Obs registers the reader's instruments: open/read/prune/merge
	// counters and the mapped-bytes and sketch-cache gauges. Nil runs
	// uninstrumented.
	Obs *obs.Registry
}

// Reader serves figure queries from a written segment directory. The
// shard files stay memory-mapped read-only; queries fault in only the
// blocks their window and zone maps fail to prune. A Reader is safe
// for concurrent use — all state after Open is immutable except the
// obs instruments and the sketch trees (sketchtree.go), whose nodes are
// each written once, under their sync.Once, and only read after.
type Reader struct {
	meta    fileMeta
	shards  []*shardSeg
	summary store.Summary
	exact   bool
	trees   map[treeKey]*sketchTree // fixed at Open; nodes fill in lazily

	// What the trees hold, so Close can take it off the shared gauges.
	cacheNodes, cacheBytes atomic.Int64

	mOpen       *obs.Counter
	mPruned     *obs.Counter
	mRead       *obs.Counter
	mSketches   *obs.Counter
	mBlockErrs  *obs.Counter
	mOpenBytes  *obs.Gauge
	mNodes      *obs.Gauge
	mCacheBytes *obs.Gauge
}

// fileMeta is the parsed meta.cseg: the store shape plus per-shard
// summary inputs and the peering tallies.
type fileMeta struct {
	metaBytes  int // preamble + meta block frame; peering frames follow
	shards     int
	partitions int
	cycles     int
	rows       int
	windows    []store.Window
	shardMeta  []shardMeta
	peering    []map[string]map[pipeline.Class]int
}

type shardMeta struct {
	rows         int
	welfordN     int
	welfordMean  float64
	welfordM2    float64
	welfordMin   float64
	welfordMax   float64
	providers    []string
	platformRows map[string]int
}

// qkey addresses one group's blocks inside a shard.
type qkey struct {
	dim      store.Dim
	platform string
	name     string
}

// groupBlocks are one group's footer entries, split by kind, each
// sorted by (partition, offset): sub-slices of the shard's one
// group-ordered entry array.
type groupBlocks struct {
	key      qkey
	cols     []entry
	sketches []entry
}

// shardSeg is one mapped shard file.
type shardSeg struct {
	data      []byte
	close     func() error
	footerOff int
	dictBytes int      // the dictionary block's frame length
	dict      [][]byte // aliases data
	parts     []partZone
	entries   []entry       // footer order, until buildIndex lays them out by group
	groups    []groupBlocks // sorted by (dim, platform, name); built by Open only
}

// Open maps the segment directory written by Write and returns a
// reader serving the store.Querier surface. Footers, dictionaries and
// zone maps parse eagerly (they are the query index); column blocks
// decode lazily per query, sketch blocks once, when a query first needs
// their tree node.
func Open(dir string, opts Options) (*Reader, error) {
	r := &Reader{
		exact:       opts.Exact,
		mOpen:       opts.Obs.Counter("segment_open_total"),
		mPruned:     opts.Obs.Counter("segment_blocks_pruned_total"),
		mRead:       opts.Obs.Counter("segment_blocks_read_total"),
		mSketches:   opts.Obs.Counter("segment_sketch_merges_total"),
		mBlockErrs:  opts.Obs.Counter("segment_block_errors_total"),
		mOpenBytes:  opts.Obs.Gauge("segment_open_bytes"),
		mNodes:      opts.Obs.Gauge("segment_sketch_nodes"),
		mCacheBytes: opts.Obs.Gauge("segment_sketch_cache_bytes"),
	}
	metaRaw, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		return nil, err
	}
	r.meta, err = parseMeta(metaRaw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", MetaFile, err)
	}
	for i := 0; i < r.meta.shards; i++ {
		data, closeFn, err := mapFile(filepath.Join(dir, ShardFile(i)))
		if err != nil {
			r.Close()
			return nil, err
		}
		ss, perr := parseShard(data)
		if perr != nil {
			closeFn()
			r.Close()
			return nil, fmt.Errorf("%s: %w", ShardFile(i), perr)
		}
		ss.close = closeFn
		ss.buildIndex()
		if len(ss.parts) != r.meta.partitions {
			closeFn()
			r.Close()
			return nil, fmt.Errorf("%w: shard %d has %d partitions, meta says %d",
				ErrCorrupt, i, len(ss.parts), r.meta.partitions)
		}
		r.shards = append(r.shards, ss)
		r.mOpen.Inc()
		r.mOpenBytes.Add(int64(len(data)))
	}
	if len(r.meta.shardMeta) != len(r.shards) {
		r.Close()
		return nil, fmt.Errorf("%w: meta describes %d shards, found %d files",
			ErrCorrupt, len(r.meta.shardMeta), len(r.shards))
	}
	r.summary = r.buildSummary()
	r.indexTrees()
	return r, nil
}

// Close unmaps every shard file and drops the sketch trees. The Reader
// must not be used after.
func (r *Reader) Close() error {
	r.trees = nil
	r.mNodes.Add(-r.cacheNodes.Swap(0))
	r.mCacheBytes.Add(-r.cacheBytes.Swap(0))
	var first error
	for _, ss := range r.shards {
		r.mOpenBytes.Add(-int64(len(ss.data)))
		if ss.close != nil {
			if err := ss.close(); err != nil && first == nil {
				first = err
			}
		}
	}
	r.shards = nil
	return first
}

// buildSummary reconstructs the sealed store's summary from the meta
// file and the shard indexes, replaying the same shard-order Welford
// merge the store performs at seal — the result is bit-identical to
// the original store.Summary().
func (r *Reader) buildSummary() store.Summary {
	sum := store.Summary{
		Shards:     r.meta.shards,
		Partitions: r.meta.partitions,
		Cycles:     r.meta.cycles,
		Platforms:  map[string]int{},
	}
	countries := map[string]struct{}{}
	providers := map[string]struct{}{}
	var rtt stats.Welford
	for i, sm := range r.meta.shardMeta {
		sum.Rows += sm.rows
		if sm.rows < sum.MinShardRows || i == 0 {
			sum.MinShardRows = sm.rows
		}
		if sm.rows > sum.MaxShardRows {
			sum.MaxShardRows = sm.rows
		}
		for _, g := range r.shards[i].groups {
			if g.key.dim == store.DimCountry {
				countries[g.key.name] = struct{}{}
			}
		}
		for _, p := range sm.providers {
			providers[p] = struct{}{}
		}
		for plat, n := range sm.platformRows {
			sum.Platforms[plat] += n
		}
		w := stats.WelfordFromMoments(sm.welfordN, sm.welfordMean, sm.welfordM2, sm.welfordMin, sm.welfordMax)
		rtt.Merge(&w)
	}
	sum.Countries = len(countries)
	sum.Providers = len(providers)
	sum.RTTMeanMs = rtt.Mean()
	sum.RTTMinMs = rtt.Min()
	sum.RTTMaxMs = rtt.Max()
	return sum
}

// parseMeta parses a meta.cseg image.
func parseMeta(data []byte) (fileMeta, error) {
	var m fileMeta
	off, err := checkPreamble(data)
	if err != nil {
		return m, err
	}
	c, next, err := blockAt(data, off, BlockMeta)
	if err != nil {
		return m, err
	}
	if err := m.parseMetaBlock(&c); err != nil {
		return m, err
	}
	m.metaBytes = next
	m.peering = make([]map[string]map[pipeline.Class]int, m.partitions)
	for i := range m.peering {
		m.peering[i] = map[string]map[pipeline.Class]int{}
	}
	for next < len(data) {
		kind, c, n, err := frameAt(data, next)
		if err != nil {
			return m, err
		}
		next = n
		switch kind {
		case BlockPeering:
			if err := m.parsePeeringBlock(&c); err != nil {
				return m, err
			}
		case BlockMeta, BlockDict, BlockColumn, BlockSketch, BlockFooter:
			return m, fmt.Errorf("%w: unexpected %v block in meta file", ErrCorrupt, kind)
		default:
			return m, fmt.Errorf("%w: unknown block kind %v", ErrCorrupt, kind)
		}
	}
	return m, nil
}

// maxShape bounds the declared store shape against hostile meta files.
const maxShape = 1 << 20

func (m *fileMeta) parseMetaBlock(c *binfmt.Dec) error {
	m.shards, m.partitions = c.Count(maxShape), c.Count(maxShape)
	m.cycles, m.rows = int(c.Uvarint()), int(c.Uvarint())
	if m.shards == 0 || m.partitions == 0 {
		c.Fail(fmt.Errorf("%w: shape %d shards × %d partitions", ErrCorrupt, m.shards, m.partitions))
	}
	m.windows = make([]store.Window, m.partitions)
	for i := range m.windows {
		m.windows[i] = store.Window{From: int(c.Zigzag()), To: int(c.Zigzag())}
	}
	m.shardMeta = make([]shardMeta, m.shards)
	for i := 0; i < len(m.shardMeta) && c.Err() == nil; i++ {
		sm := &m.shardMeta[i]
		sm.rows, sm.welfordN = int(c.Uvarint()), int(c.Uvarint())
		sm.welfordMean, sm.welfordM2 = c.Float64(), c.Float64()
		sm.welfordMin, sm.welfordMax = c.Float64(), c.Float64()
		sm.providers = make([]string, c.Count(maxDictStrings))
		for j := range sm.providers {
			sm.providers[j] = c.String(maxDictStringLen)
		}
		nplat := c.Count(maxDictStrings)
		sm.platformRows = make(map[string]int, nplat)
		for j := 0; j < nplat; j++ {
			plat := c.String(maxDictStringLen)
			sm.platformRows[plat] = int(c.Uvarint())
		}
	}
	return blockErr("meta block", c.End())
}

func (m *fileMeta) parsePeeringBlock(c *binfmt.Dec) error {
	part := c.Uvarint()
	if c.Err() == nil && part >= uint64(m.partitions) {
		return fmt.Errorf("%w: peering partition %d of %d", ErrCorrupt, part, m.partitions)
	}
	for i, nprov := 0, c.Count(maxDictStrings); i < nprov && c.Err() == nil; i++ {
		classes := map[pipeline.Class]int{}
		prov := c.String(maxDictStringLen)
		for j, ncl := 0, c.Count(256); j < ncl; j++ {
			cl, n := c.Uvarint(), c.Uvarint()
			if cl > 255 {
				c.Fail(fmt.Errorf("%w: peering class %d", ErrCorrupt, cl))
			}
			classes[pipeline.Class(cl)] += int(n)
		}
		store.FoldPeering(m.peering[part], map[string]map[pipeline.Class]int{prov: classes})
	}
	return blockErr("peering block", c.End())
}

// parseShard parses a shard file image: preamble, tail, footer and
// dictionary, every footer entry checked. Column and sketch block
// payloads are left untouched; Open then indexes the entries
// (buildIndex), CheckShard decodes them in footer order.
func parseShard(data []byte) (*shardSeg, error) {
	if _, err := checkPreamble(data); err != nil {
		return nil, err
	}
	if len(data) < tailSize {
		return nil, ErrTruncated
	}
	tail := data[len(data)-tailSize:]
	if string(tail[12:]) != tailMagic {
		return nil, fmt.Errorf("%w: tail magic", ErrMagic)
	}
	if binfmt.Checksum(tail[:8]) != binary.LittleEndian.Uint32(tail[8:12]) {
		return nil, fmt.Errorf("%w: tail", ErrCRC)
	}
	footerOff := binary.LittleEndian.Uint64(tail[:8])
	if footerOff > uint64(len(data)-tailSize) {
		return nil, fmt.Errorf("%w: footer offset %d", ErrTruncated, footerOff)
	}
	ss := &shardSeg{data: data, footerOff: int(footerOff)}
	c, _, err := blockAt(ss.blocks(), ss.footerOff, BlockFooter)
	if err != nil {
		return nil, fmt.Errorf("footer: %w", err)
	}
	if err := ss.parseFooter(&c); err != nil {
		return nil, err
	}
	return ss, nil
}

// blocks is the file image without its tail: the span frames live in.
func (ss *shardSeg) blocks() []byte { return ss.data[:len(ss.data)-tailSize] }

func (ss *shardSeg) parseFooter(c *binfmt.Dec) error {
	dictOff := int(c.Uvarint())
	if err := c.Err(); err != nil {
		return blockErr("footer", err)
	}
	dc, dictEnd, err := blockAt(ss.blocks(), dictOff, BlockDict)
	if err != nil {
		return fmt.Errorf("dict: %w", err)
	}
	ss.dictBytes = dictEnd - dictOff
	ss.dict = make([][]byte, dc.Count(maxDictStrings))
	for i := range ss.dict {
		ss.dict[i] = dc.Bytes(maxDictStringLen)
	}
	if err := dc.End(); err != nil {
		return blockErr("dict", err)
	}
	ss.parts = make([]partZone, c.Count(maxShape))
	if len(ss.parts) == 0 {
		c.Fail(fmt.Errorf("%w: 0 partitions", ErrCorrupt))
	}
	// Partitions split the cycle axis in order, so the zones of the
	// non-empty ones ascend without touching. The sketch path relies on
	// it: a window's partitions are then one contiguous run.
	last := -1 // the latest non-empty partition
	for i := range ss.parts {
		p := partZone{rows: int(c.Uvarint()), minCycle: int(c.Zigzag()), maxCycle: int(c.Zigzag())}
		if p.rows > 0 {
			if p.minCycle > p.maxCycle {
				c.Fail(fmt.Errorf("%w: partition %d zone [%d, %d]", ErrCorrupt, i, p.minCycle, p.maxCycle))
			}
			if last >= 0 && p.minCycle <= ss.parts[last].maxCycle {
				c.Fail(fmt.Errorf("%w: partition %d zone [%d, %d] does not follow partition %d's [%d, %d]",
					ErrZoneMap, i, p.minCycle, p.maxCycle, last, ss.parts[last].minCycle, ss.parts[last].maxCycle))
			}
			last = i
		}
		ss.parts[i] = p
	}
	nentries := c.Count(len(ss.data))
	ss.entries = make([]entry, 0, nentries)
	for i := 0; i < nentries; i++ {
		e := entry{kind: BlockKind(c.Byte()), dim: store.Dim(c.Byte())}
		e.platformID, e.nameID = uint32(c.Uvarint()), uint32(c.Uvarint())
		e.part, e.rows = int(c.Uvarint()), int(c.Uvarint())
		e.minCycle, e.maxCycle = int(c.Zigzag()), int(c.Zigzag())
		e.minRTT, e.maxRTT = c.Float64(), c.Float64()
		e.offset, e.length = int(c.Uvarint()), int(c.Uvarint())
		if err := c.Err(); err != nil {
			return blockErr("footer", err)
		}
		if err := ss.checkEntry(e); err != nil {
			return err
		}
		ss.entries = append(ss.entries, e)
	}
	if err := c.End(); err != nil {
		return blockErr("footer", err)
	}
	return nil
}

// checkEntry validates one footer entry against the dictionary, the
// partition table and the file's extent; nil means the entry may be
// indexed and its block read.
func (ss *shardSeg) checkEntry(e entry) error {
	end := e.offset + e.length
	switch {
	case e.kind != BlockColumn && e.kind != BlockSketch:
		return fmt.Errorf("%w: entry kind %v", ErrCorrupt, e.kind)
	case e.dim != store.DimCountry && e.dim != store.DimContinent && e.dim != store.DimPair:
		return fmt.Errorf("%w: entry dim %d", ErrCorrupt, e.dim)
	case e.platformID == 0 || int(e.platformID) > len(ss.dict) || e.nameID == 0 || int(e.nameID) > len(ss.dict):
		return fmt.Errorf("%w: entry dict ids %d/%d of %d", ErrCorrupt, e.platformID, e.nameID, len(ss.dict))
	case e.part < 0 || e.part >= len(ss.parts):
		return fmt.Errorf("%w: entry partition %d", ErrCorrupt, e.part)
	case e.rows <= 0 || (e.kind == BlockColumn && e.rows > MaxBlockRows):
		return fmt.Errorf("%w: %v entry rows %d", ErrCorrupt, e.kind, e.rows)
	case e.minCycle > e.maxCycle:
		return fmt.Errorf("%w: entry zone [%d, %d]", ErrCorrupt, e.minCycle, e.maxCycle)
	case math.IsNaN(e.minRTT) || math.IsNaN(e.maxRTT) || e.minRTT > e.maxRTT:
		return fmt.Errorf("%w: entry RTT zone", ErrCorrupt)
	case e.offset < 0 || e.length <= 0 || end < e.offset || end > len(ss.blocks()):
		return fmt.Errorf("%w: entry span [%d, +%d)", ErrCorrupt, e.offset, e.length)
	case end > ss.footerOff && e.offset < ss.footerOff:
		return fmt.Errorf("%w: entry overlaps footer", ErrCorrupt)
	}
	return nil
}

// buildIndex lays the footer's entries out group by group — groups in
// (dim, platform, name) order, each group's column entries and then its
// sketch entries, each by (partition, offset) — and cuts ss.groups out
// of that one array.
//
// No entry is sorted and no string compared per entry. The dictionary
// is ranked by string once; a dictionary may repeat a string, and ids
// of equal strings share a rank, so they key one group. Two stable
// counting passes over entry indices — by (name, kind), then by (dim,
// platform) — order the entries, footer order breaking ties. The
// writer lists a group's blocks by partition and offset already; a
// footer is a claim, not a truth, so a group that is not in that order
// is sorted.
func (ss *shardSeg) buildIndex() {
	names, byString := make([]string, len(ss.dict)), make([]uint32, len(ss.dict))
	for i, b := range ss.dict {
		names[i], byString[i] = string(b), uint32(i)
	}
	slices.SortFunc(byString, func(a, b uint32) int { return strings.Compare(names[a], names[b]) })
	rank := make([]int, len(names)+1) // by 1-based id
	ranks := 0
	for i, id := range byString {
		if i > 0 && names[id] != names[byString[i-1]] {
			ranks++
		}
		rank[id+1] = ranks
	}
	ranks++

	es := ss.entries
	order, tmp := make([]int32, len(es)), make([]int32, len(es))
	for i := range tmp {
		tmp[i] = int32(i)
	}
	counts := make([]int, (int(store.DimPair)+1)*ranks+1)
	countingPass(es, tmp, order, counts[:2*ranks+1], func(e *entry) int {
		if e.kind == BlockSketch {
			return 2*rank[e.nameID] + 1
		}
		return 2 * rank[e.nameID]
	})
	countingPass(es, order, tmp, counts, func(e *entry) int {
		return int(e.dim)*ranks + rank[e.platformID]
	})
	flat := make([]entry, len(es))
	for i, j := range tmp {
		flat[i] = es[j]
	}
	ss.entries = flat

	sameGroup := func(a, b *entry) bool {
		return a.dim == b.dim && rank[a.platformID] == rank[b.platformID] && rank[a.nameID] == rank[b.nameID]
	}
	ngroups := 0
	for i := range flat {
		if i == 0 || !sameGroup(&flat[i-1], &flat[i]) {
			ngroups++
		}
	}
	ss.groups = make([]groupBlocks, 0, ngroups)
	for lo := 0; lo < len(flat); {
		mid, hi := lo, lo+1
		for hi < len(flat) && sameGroup(&flat[lo], &flat[hi]) {
			hi++
		}
		for mid < hi && flat[mid].kind == BlockColumn {
			mid++
		}
		e := &flat[lo]
		g := groupBlocks{
			key:      qkey{dim: e.dim, platform: names[e.platformID-1], name: names[e.nameID-1]},
			cols:     flat[lo:mid:mid],
			sketches: flat[mid:hi:hi],
		}
		sortEntries(g.cols)
		sortEntries(g.sketches)
		ss.groups = append(ss.groups, g)
		lo = hi
	}
}

// countingPass places the entry indices of src into dst, stably
// ordered by key, which must fall in [0, len(counts)-1).
func countingPass(es []entry, src, dst []int32, counts []int, key func(*entry) int) {
	clear(counts)
	for _, i := range src {
		counts[key(&es[i])+1]++
	}
	for k := 1; k < len(counts); k++ {
		counts[k] += counts[k-1]
	}
	for _, i := range src {
		k := key(&es[i])
		dst[counts[k]] = i
		counts[k]++
	}
}

// sortEntries orders one group's entries of one kind by (partition,
// offset), leaving a run already in that order as it is.
func sortEntries(es []entry) {
	for i := 1; i < len(es); i++ {
		if es[i].part < es[i-1].part || es[i].part == es[i-1].part && es[i].offset < es[i-1].offset {
			slices.SortStableFunc(es, func(a, b entry) int {
				return cmp.Or(cmp.Compare(a.part, b.part), cmp.Compare(a.offset, b.offset))
			})
			return
		}
	}
}

// readColumn decodes one column block into slices of its own; see
// decodeColumn.
func (ss *shardSeg) readColumn(e entry) ([]float64, []int32, error) {
	return ss.decodeColumn(e, nil, nil)
}

// decodeColumn decodes one column block into rtt and cycle, grown as
// needed, cross-checking the decoded rows against the footer entry's
// row count and zone maps — a block whose data escapes its advertised
// ranges is a zone-map lie, not valid data.
func (ss *shardSeg) decodeColumn(e entry, rtt []float64, cycle []int32) ([]float64, []int32, error) {
	c, _, err := blockAt(ss.data[:e.offset+e.length], e.offset, BlockColumn)
	if err != nil {
		return nil, nil, err
	}
	rows, enc := c.Count(MaxBlockRows), c.Byte()
	if c.Err() == nil && rows != e.rows {
		c.Fail(fmt.Errorf("%w: block rows %d, entry says %d", ErrCorrupt, rows, e.rows))
	}
	rtt, cycle = slices.Grow(rtt[:0], rows)[:rows], slices.Grow(cycle[:0], rows)[:rows]
	switch enc {
	case colDelta:
		c.FloatDeltas(rtt)
	case colRaw:
		c.Floats(rtt)
	default:
		c.Fail(fmt.Errorf("%w: RTT encoding %d", ErrCorrupt, enc))
	}
	var cur int64
	for i := range cycle {
		cur += c.Zigzag()
		if (cur < int64(e.minCycle) || cur > int64(e.maxCycle)) && c.Err() == nil {
			c.Fail(fmt.Errorf("%w: cycle %d outside entry [%d, %d]", ErrZoneMap, cur, e.minCycle, e.maxCycle))
		}
		cycle[i] = int32(cur)
	}
	if err := c.End(); err != nil {
		return nil, nil, blockErr("column block", err)
	}
	prev := math.Inf(-1)
	for _, x := range rtt {
		if math.IsNaN(x) || x < prev {
			return nil, nil, fmt.Errorf("%w: RTT column not sorted", ErrCorrupt)
		}
		prev = x
	}
	if rtt[0] < e.minRTT || rtt[rows-1] > e.maxRTT {
		return nil, nil, fmt.Errorf("%w: RTT range [%g, %g] outside entry [%g, %g]",
			ErrZoneMap, rtt[0], rtt[rows-1], e.minRTT, e.maxRTT)
	}
	return rtt, cycle, nil
}

// readSketch decodes one sketch block into a digest of its own; see
// decodeSketch.
func (ss *shardSeg) readSketch(e entry) (*sketch.Sketch, error) {
	sk := new(sketch.Sketch)
	if err := ss.decodeSketch(e, sk); err != nil {
		return nil, err
	}
	return sk, nil
}

// decodeSketch decodes one sketch block into sk (sketch.DecodeInto),
// cross-checking its count and range against the footer entry.
func (ss *shardSeg) decodeSketch(e entry, sk *sketch.Sketch) error {
	c, _, err := blockAt(ss.data[:e.offset+e.length], e.offset, BlockSketch)
	if err != nil {
		return err
	}
	rest, err := sketch.DecodeInto(sk, c.Rest())
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in sketch block", ErrCorrupt, len(rest))
	}
	if sk.Count() != uint64(e.rows) {
		return fmt.Errorf("%w: sketch count %d, entry says %d", ErrZoneMap, sk.Count(), e.rows)
	}
	if sk.Count() > 0 && (sk.Min() < e.minRTT || sk.Max() > e.maxRTT) {
		return fmt.Errorf("%w: sketch range outside entry", ErrZoneMap)
	}
	return nil
}

// Usage is where a segment's bytes go, framing included: per block
// kind and, for column and sketch blocks, per query dimension. A file's
// preamble counts towards its meta or footer block and a shard's tail
// towards its footer, so the kinds of a directory sum to its size.
type Usage struct {
	ByKind [BlockFooter + 1]int64
	ByDim  [store.DimPair + 1]int64
}

// AddMeta fully validates a meta file image and adds its bytes to u.
func (u *Usage) AddMeta(data []byte) error {
	m, err := parseMeta(data)
	if err != nil {
		return err
	}
	u.ByKind[BlockMeta] += int64(m.metaBytes)
	u.ByKind[BlockPeering] += int64(len(data) - m.metaBytes)
	return nil
}

// AddShard fully validates a shard file image — structure, CRCs,
// dictionary, footer entries, and every entry's block decoded with its
// zone maps cross-checked — and adds its bytes to u. It builds no
// index, and every block decodes into the same buffers.
func (u *Usage) AddShard(data []byte) error {
	ss, err := parseShard(data)
	if err != nil {
		return err
	}
	maxRows := 0
	for _, e := range ss.entries {
		if e.kind == BlockColumn {
			maxRows = max(maxRows, e.rows)
		}
	}
	rtt, cycle := make([]float64, 0, maxRows), make([]int32, 0, maxRows)
	var sk sketch.Sketch
	for _, e := range ss.entries {
		switch e.kind {
		case BlockColumn:
			rtt, cycle, err = ss.decodeColumn(e, rtt, cycle)
		case BlockSketch:
			err = ss.decodeSketch(e, &sk)
		case BlockMeta, BlockDict, BlockPeering, BlockFooter:
			err = fmt.Errorf("%w: entry kind %v", ErrCorrupt, e.kind)
		default:
			err = fmt.Errorf("%w: unknown entry kind %v", ErrCorrupt, e.kind)
		}
		if err != nil {
			return err
		}
		u.ByKind[e.kind] += int64(e.length)
		u.ByDim[e.dim] += int64(e.length)
	}
	u.ByKind[BlockDict] += int64(ss.dictBytes)
	u.ByKind[BlockFooter] += int64(len(Magic) + 1 + len(data) - ss.footerOff)
	return nil
}

// CheckMeta fully validates a meta file image — the fuzzing entry
// point for the meta format.
func CheckMeta(data []byte) error { return new(Usage).AddMeta(data) }

// CheckShard is the fuzzing entry point for the shard format and the
// integrity pass of `cloudy segment -check`; see Usage.AddShard.
func CheckShard(data []byte) error { return new(Usage).AddShard(data) }
