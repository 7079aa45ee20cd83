// Package binfmt is the one byte vocabulary under the repository's
// binary layouts — the worker→coordinator wire (internal/wirecodec),
// CSEG segment files (internal/segment) and the t-digest blocks inside
// them (internal/sketch). Each layout keeps its own magic, version,
// block kinds and validity rules; what they share lives here, once:
//
//   - the frame: uvarint(len(payload)) | payload | CRC32-Castagnoli of
//     the payload, little-endian (AppendFrame, FrameAt, MaxFrame);
//   - the read cursor Dec, whose first failure sticks: later reads
//     return zero values without advancing, so a parser reads a whole
//     block straight through and checks Err once;
//   - the sorted-float column: first value as raw IEEE-754 bits, then
//     uvarint deltas of the bit patterns (sorted non-negative floats
//     have increasing bits), with raw 8-byte values as the fallback
//     the caller selects when MonotoneBits says no;
//   - the scalar encoders (Append*, Zigzag).
//
// Stdlib only, no clock, no randomness: a leaf in deterministic scope.
package binfmt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// MaxFrame bounds one frame's payload (16 MiB): a corrupt or hostile
// length field must not translate into an unbounded allocation.
const MaxFrame = 16 << 20

// Decode failures. Callers map them onto their own sentinels once per
// block; ErrShort is the only one that means "more bytes would help".
var (
	ErrShort    = errors.New("binfmt: input ends mid-field")
	ErrRange    = errors.New("binfmt: value out of range")
	ErrCRC      = errors.New("binfmt: frame checksum mismatch")
	ErrTrailing = errors.New("binfmt: trailing bytes")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC32-Castagnoli every frame carries.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// AppendFrame appends payload framed: uvarint length, payload, CRC32-C.
// The payload must be non-empty and at most MaxFrame bytes.
func AppendFrame(dst, payload []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, Checksum(payload))
}

// FrameAt reads the frame starting at data[off], verifying bounds and
// checksum, and returns its payload (aliasing data) and the offset one
// past the frame.
func FrameAt(data []byte, off int) (payload []byte, next int, err error) {
	if off < 0 || off >= len(data) {
		return nil, 0, fmt.Errorf("%w: frame offset %d of %d", ErrShort, off, len(data))
	}
	length, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return nil, 0, fmt.Errorf("%w: frame length", ErrShort)
	}
	if length == 0 || length > MaxFrame {
		return nil, 0, fmt.Errorf("%w: frame length %d", ErrRange, length)
	}
	start := off + n
	if uint64(len(data)-start) < length+4 {
		return nil, 0, fmt.Errorf("%w: %d-byte frame", ErrShort, length)
	}
	end := start + int(length)
	payload = data[start:end]
	if Checksum(payload) != binary.LittleEndian.Uint32(data[end:]) {
		return nil, 0, ErrCRC
	}
	return payload, end + 4, nil
}

// Zigzag maps a signed value onto the unsigned varint space so small
// magnitudes of either sign stay short; Unzigzag inverts it.
func Zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Unzigzag inverts Zigzag.
func Unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendZigzag appends v as a zigzag uvarint.
func AppendZigzag(dst []byte, v int64) []byte { return binary.AppendUvarint(dst, Zigzag(v)) }

// AppendFloat64 appends v's exact IEEE-754 bits, little-endian.
func AppendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// AppendString appends s length-prefixed.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// MonotoneBits reports whether the IEEE-754 bit patterns of xs never
// decrease — the precondition of AppendFloatDeltas. It holds for any
// ascending run of non-negative floats.
func MonotoneBits(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if math.Float64bits(xs[i]) < math.Float64bits(xs[i-1]) {
			return false
		}
	}
	return true
}

// AppendFloatDeltas appends xs (non-empty, MonotoneBits) as the first
// value's raw bits followed by uvarint bit-pattern deltas.
func AppendFloatDeltas(dst []byte, xs []float64) []byte {
	prev := math.Float64bits(xs[0])
	dst = binary.LittleEndian.AppendUint64(dst, prev)
	for _, x := range xs[1:] {
		bits := math.Float64bits(x)
		dst = binary.AppendUvarint(dst, bits-prev)
		prev = bits
	}
	return dst
}

// AppendFloats appends every value of xs as raw bits.
func AppendFloats(dst []byte, xs []float64) []byte {
	for _, x := range xs {
		dst = AppendFloat64(dst, x)
	}
	return dst
}

// Dec is a read cursor over one block. Use it by value (NewDec) and
// pass its address down; it never allocates except in String.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a cursor at the start of b.
func NewDec(b []byte) Dec { return Dec{b: b} }

// Err returns the first failure, nil while every read succeeded.
func (d *Dec) Err() error { return d.err }

// Fail records err unless an earlier failure already stuck. Parsers use
// it for their own validity rules so those stop the cursor too.
func (d *Dec) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Rest returns the unread bytes.
func (d *Dec) Rest() []byte { return d.b }

// End finishes a block: it returns the sticky failure, or ErrTrailing
// when the block was not consumed exactly.
func (d *Dec) End() error {
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("%w: %d", ErrTrailing, len(d.b))
	}
	return d.err
}

// Uvarint reads one uvarint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = ErrShort
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Zigzag reads one zigzag uvarint.
func (d *Dec) Zigzag() int64 { return Unzigzag(d.Uvarint()) }

// Byte reads one byte.
func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.err = ErrShort
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Float64 reads eight bytes of IEEE-754 bits.
func (d *Dec) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.err = ErrShort
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// Count reads the element count of a repeated field: a uvarint that may
// not exceed max (ErrRange) nor the bytes left (ErrShort) — every
// element of every layout occupies at least one byte, so a count the
// input cannot hold is refused before anything is allocated for it.
func (d *Dec) Count(max int) int {
	v := d.Uvarint()
	switch {
	case d.err != nil:
		return 0
	case v > uint64(max):
		d.err = fmt.Errorf("%w: count %d exceeds %d", ErrRange, v, max)
		return 0
	case v > uint64(len(d.b)):
		d.err = fmt.Errorf("%w: count %d with %d bytes left", ErrShort, v, len(d.b))
		return 0
	}
	return int(v)
}

// String reads one length-prefixed string of at most max bytes.
func (d *Dec) String(max int) string { return string(d.Bytes(max)) }

// Bytes is String without the copy: the returned slice aliases the
// input.
func (d *Dec) Bytes(max int) []byte {
	n := d.Count(max)
	b := d.b[:n:n]
	d.b = d.b[n:]
	return b
}

// Floats fills dst with raw 8-byte values (AppendFloats).
func (d *Dec) Floats(dst []float64) {
	if d.err != nil {
		return
	}
	if len(d.b)/8 < len(dst) {
		d.err = ErrShort
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[8*i:]))
	}
	d.b = d.b[8*len(dst):]
}

// FloatDeltas fills dst with a column written by AppendFloatDeltas. A
// delta that would carry out of 64 bits is ErrRange. It checks neither
// order nor finiteness of the values: layouts differ on those.
func (d *Dec) FloatDeltas(dst []float64) {
	if d.err != nil || len(dst) == 0 {
		return
	}
	if len(d.b) < 8 {
		d.err = ErrShort
		return
	}
	bits := binary.LittleEndian.Uint64(d.b)
	b := d.b[8:]
	dst[0] = math.Float64frombits(bits)
	for i := 1; i < len(dst); i++ {
		delta, n := binary.Uvarint(b)
		if n <= 0 {
			d.err = ErrShort
			return
		}
		if delta > math.MaxUint64-bits {
			d.err = fmt.Errorf("%w: float bits overflow", ErrRange)
			return
		}
		bits += delta
		dst[i] = math.Float64frombits(bits)
		b = b[n:]
	}
	d.b = b
}
