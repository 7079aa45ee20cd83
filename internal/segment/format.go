// Package segment implements the on-disk columnar format for sealed
// measurement stores. A store (internal/store) serializes into a
// directory of segment files — one meta file plus one file per shard —
// and reopens through a read-only mmap so a multi-month campaign
// serves figure queries straight from page cache without rebuilding
// in-memory vectors.
//
// Every file starts with the "CSEG"+version preamble and then carries
// internal/binfmt frames (uvarint payload length, payload, CRC32-C). A
// frame's payload is one block — a kind byte followed by the
// kind-specific body. Shard files end with a footer block indexing
// every other block (kind, group identity, time partition, row count,
// cycle and RTT zone maps, offset, length) and a fixed 16-byte tail
// locating the footer, so a reader maps the file, reads the tail,
// parses the footer and dictionary, and touches data blocks only when
// a query needs them; blocks whose zone map misses the query window
// are pruned without faulting their pages in.
//
// Column blocks hold one group's RTT and cycle columns (≤ 4096 rows
// per block): RTTs as binfmt's sorted-float column, cycles as zigzag
// varint deltas — the vocabulary the wire and the sketches also use.
// Sketch blocks hold one group×partition t-digest (internal/sketch).
// The format is deterministic end to end: the same sealed store
// always writes byte-identical segment files.
package segment

import (
	"errors"
	"fmt"

	"repro/internal/binfmt"
)

// Magic begins every segment file, followed by FormatVersion.
const Magic = "CSEG"

// FormatVersion is the format generation; readers reject others.
const FormatVersion = 1

// tailMagic ends a shard file; the 16-byte tail is
// [8B footer offset LE][4B CRC32C of those 8 bytes][tailMagic].
const tailMagic = "GESC"

const tailSize = 16

// MaxBlockRows caps one column block so a straddled window filters at
// block granularity and a point query decodes at most this many rows
// per block touched.
const MaxBlockRows = 4096

// maxDictStrings and maxDictStringLen bound dictionary parsing against
// hostile footers.
const (
	maxDictStrings   = 1 << 20
	maxDictStringLen = 1 << 16
)

// BlockKind tags a frame payload. The constant group is exhaustively
// switched by readers; the cloudyvet frameexhaustive analyzer enforces
// that every switch over BlockKind either covers all kinds or handles
// the rest in a non-empty default.
type BlockKind uint8

const (
	// BlockMeta carries the store-level metadata (shard/partition/cycle
	// counts, partition windows, per-shard summary moments).
	BlockMeta BlockKind = 1 + iota
	// BlockDict carries a shard's string dictionary (platforms and
	// group names), id-ordered, ids 1-based.
	BlockDict
	// BlockColumn carries one slice of a group's RTT+cycle columns.
	BlockColumn
	// BlockSketch carries one group×partition quantile sketch.
	BlockSketch
	// BlockPeering carries one partition's interconnection tallies.
	BlockPeering
	// BlockFooter carries a shard file's block index and zone maps.
	BlockFooter
)

// String names the kind for diagnostics.
func (k BlockKind) String() string {
	switch k {
	case BlockMeta:
		return "meta"
	case BlockDict:
		return "dict"
	case BlockColumn:
		return "column"
	case BlockSketch:
		return "sketch"
	case BlockPeering:
		return "peering"
	case BlockFooter:
		return "footer"
	default:
		return fmt.Sprintf("BlockKind(%d)", uint8(k))
	}
}

// Format errors. All corruption detected while parsing or decoding
// wraps ErrCorrupt; the specific sentinels let tests and the fuzz
// harness distinguish failure classes.
var (
	ErrCorrupt   = errors.New("segment: corrupt")
	ErrMagic     = fmt.Errorf("%w: bad magic", ErrCorrupt)
	ErrVersion   = fmt.Errorf("%w: unsupported version", ErrCorrupt)
	ErrCRC       = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	ErrTruncated = fmt.Errorf("%w: truncated", ErrCorrupt)
	// ErrZoneMap marks a block whose decoded rows contradict the
	// footer's zone map — the footer promised a cycle or RTT range the
	// data escapes — or partition zones that overlap or descend: either
	// way pruning decisions based on the footer would be wrong.
	ErrZoneMap = fmt.Errorf("%w: zone map contradicts block data", ErrCorrupt)
)

// blockErr maps a frame or cursor failure in the named block onto the
// package sentinels — the one place binfmt errors become segment
// errors. Failures the parsers raised themselves already wrap
// ErrCorrupt and pass through.
func blockErr(what string, err error) error {
	switch {
	case err == nil || errors.Is(err, ErrCorrupt):
		return err
	case errors.Is(err, binfmt.ErrShort):
		return fmt.Errorf("%w: %s: %v", ErrTruncated, what, err)
	case errors.Is(err, binfmt.ErrCRC):
		return fmt.Errorf("%w: %s", ErrCRC, what)
	default:
		return fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
	}
}

// frameAt reads the framed block starting at off and returns its kind,
// a cursor over its body, and the offset one past the frame.
func frameAt(data []byte, off int) (BlockKind, binfmt.Dec, int, error) {
	payload, next, err := binfmt.FrameAt(data, off)
	if err != nil {
		return 0, binfmt.Dec{}, 0, blockErr("frame", err)
	}
	return BlockKind(payload[0]), binfmt.NewDec(payload[1:]), next, nil
}

// blockAt is frameAt for an offset an index vouches for: the block
// there must be of kind want.
func blockAt(data []byte, off int, want BlockKind) (binfmt.Dec, int, error) {
	kind, c, next, err := frameAt(data, off)
	if err == nil && kind != want {
		err = fmt.Errorf("%w: block at offset %d is %v, want %v", ErrCorrupt, off, kind, want)
	}
	return c, next, err
}

// checkPreamble validates the file preamble and returns the offset of
// the first frame.
func checkPreamble(data []byte) (int, error) {
	if len(data) < len(Magic)+1 {
		return 0, ErrTruncated
	}
	if string(data[:len(Magic)]) != Magic {
		return 0, ErrMagic
	}
	if data[len(Magic)] != FormatVersion {
		return 0, fmt.Errorf("%w: %d", ErrVersion, data[len(Magic)])
	}
	return len(Magic) + 1, nil
}
