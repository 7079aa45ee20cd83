// Package wirecodec is the binary sample wire protocol of the
// distributed campaign plane (internal/cluster): a length-prefixed,
// CRC-framed, versioned stream of Sample/TraceSample batches and
// opaque control payloads, replacing the NDJSON/CSV text codecs on the
// worker→coordinator path.
//
// Layout. A stream opens with a 5-byte preamble — magic "CWRE" plus a
// version byte — then carries frames:
//
//	frame    := uvarint(len(payload)) payload crc32c(payload)   (internal/binfmt)
//	payload  := type-byte body
//
// Frame types: control (opaque body, JSON in cluster's usage), ping
// batch, trace batch, and EOF (carrying the stream's record totals, so
// a truncated stream is detectable). Record bodies use a per-stream
// string dictionary (every probe ID, country or region string is sent
// once and referenced by varint afterwards), zigzag-varint deltas for
// cycles and hop TTLs, varints for ASN/IP, and exact 8-byte IEEE-754
// bits for every RTT — the codec round-trips every field bit-exactly,
// which the cluster's replay-on-reassign determinism depends on.
//
// The codec state (dictionary, delta baselines) persists across frames
// within one stream: frames must be decoded in the order they were
// encoded, which is exactly what one worker connection provides.
//
// The package never reads the clock and draws no randomness; it is
// deterministic-scope under internal/lint like the rest of the spine.
package wirecodec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/binfmt"
	"repro/internal/obs"
)

// Version is the stream format version this package speaks. A preamble
// carrying any other version is refused (ErrVersion) — skew between a
// coordinator and a worker binary must fail loudly, not misparse.
const Version = 1

// Frame types. The type byte is the first byte of every payload.
const (
	// FrameControl carries an opaque control-plane payload (the cluster
	// protocol uses JSON messages).
	FrameControl byte = 0x01
	// FramePings carries a batch of Sample records.
	FramePings byte = 0x02
	// FrameTraces carries a batch of TraceSample records.
	FrameTraces byte = 0x03
	// FrameEOF ends a record stream, carrying the total ping and trace
	// counts written, so readers can detect truncation.
	FrameEOF byte = 0x04
)

var magic = [4]byte{'C', 'W', 'R', 'E'}

// Decode-side hard limits: a corrupt or hostile length field must not
// translate into an unbounded allocation.
const (
	// MaxFrame bounds one frame's payload (16 MiB).
	MaxFrame = binfmt.MaxFrame
	// maxString bounds one dictionary string.
	maxString = 1 << 16
	// maxDict bounds one stream's dictionary — the strings a Decoder
	// holds for the life of a worker connection. A scale-1 campaign
	// interns ~120 k; the cap is segment's dictionary cap.
	maxDict = 1 << 20
	// maxHops bounds one traceroute's hop list.
	maxHops = 4096
)

// Errors the decode path reports. All of them wrap enough context to
// tell a truncated stream from a corrupt one from a version skew.
var (
	ErrMagic    = errors.New("wirecodec: bad stream magic")
	ErrVersion  = errors.New("wirecodec: unsupported stream version")
	ErrCRC      = errors.New("wirecodec: frame crc mismatch")
	ErrTooLarge = errors.New("wirecodec: frame exceeds size limit")
	// ErrTruncated marks a stream that ended without its EOF frame (or
	// mid-frame): the producer died before finishing.
	ErrTruncated = errors.New("wirecodec: truncated stream")
	// ErrDictFull marks a stream that introduced more dictionary strings
	// than any campaign needs: a buggy or hostile producer.
	ErrDictFull = errors.New("wirecodec: stream dictionary exceeds its string limit")
)

// Options attaches stream telemetry. Both fields are optional; nil
// runs uncounted.
type Options struct {
	// Frames counts frames as they pass (written or read).
	Frames *obs.Counter
	// Bytes counts wire bytes including framing overhead.
	Bytes *obs.Counter
}

func (o Options) withDefaults() Options {
	var unregistered *obs.Registry // nil registry hands out working instruments
	if o.Frames == nil {
		o.Frames = unregistered.Counter("wire_frames_total")
	}
	if o.Bytes == nil {
		o.Bytes = unregistered.Counter("wire_bytes_total")
	}
	return o
}

// FrameWriter writes the preamble and frames to an underlying writer.
// WriteFrame is safe for concurrent use — on a worker connection the
// heartbeat goroutine and the sample sink share one writer — and each
// frame lands contiguously.
type FrameWriter struct {
	mu       sync.Mutex
	bw       *bufio.Writer
	preamble bool
	opts     Options
	buf      []byte // the framed bytes of the frame being written
}

// NewFrameWriter wraps w. Frames are buffered; call Flush to push them
// to the wire (WriteFrame flushes internally only when the buffer
// fills, so a control message should be followed by a Flush).
func NewFrameWriter(w io.Writer, opts Options) *FrameWriter {
	return &FrameWriter{bw: bufio.NewWriterSize(w, 64<<10), opts: opts.withDefaults()}
}

// WriteFrame frames and writes one payload (type byte included). The
// payload may be reused by the caller once WriteFrame returns.
func (fw *FrameWriter) WriteFrame(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("wirecodec: empty frame payload")
	}
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if !fw.preamble {
		if _, err := fw.bw.Write(append(magic[:], Version)); err != nil {
			return err
		}
		fw.preamble = true
	}
	fw.buf = binfmt.AppendFrame(fw.buf[:0], payload)
	if _, err := fw.bw.Write(fw.buf); err != nil {
		return err
	}
	fw.opts.Frames.Inc()
	fw.opts.Bytes.Add(uint64(len(fw.buf)))
	return nil
}

// Flush pushes buffered frames to the underlying writer.
func (fw *FrameWriter) Flush() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.bw.Flush()
}

// FrameReader reads the preamble and frames. Not safe for concurrent
// use (one connection has one reading goroutine). The payload slice
// returned by ReadFrame is reused by the next call.
type FrameReader struct {
	br       *bufio.Reader
	preamble bool
	buf      []byte
	opts     Options
}

// NewFrameReader wraps r.
func NewFrameReader(r io.Reader, opts Options) *FrameReader {
	return &FrameReader{br: bufio.NewReaderSize(r, 64<<10), opts: opts.withDefaults()}
}

// ReadFrame returns the next frame's payload (type byte included). At
// a clean frame boundary with no further bytes it returns io.EOF; a
// stream that stops mid-frame returns ErrTruncated. The returned slice
// is only valid until the next ReadFrame.
func (fr *FrameReader) ReadFrame() ([]byte, error) {
	if !fr.preamble {
		var pre [5]byte
		if _, err := io.ReadFull(fr.br, pre[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("%w: stream ended inside the preamble", ErrTruncated)
			}
			return nil, err
		}
		if [4]byte(pre[:4]) != magic {
			return nil, fmt.Errorf("%w: % x", ErrMagic, pre[:4])
		}
		if pre[4] != Version {
			return nil, fmt.Errorf("%w: stream speaks v%d, this decoder v%d", ErrVersion, pre[4], Version)
		}
		fr.preamble = true
	}
	size, err := binary.ReadUvarint(fr.br)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean boundary
		}
		return nil, fmt.Errorf("%w: stream ended inside a frame length", ErrTruncated)
	}
	if size == 0 {
		return nil, fmt.Errorf("wirecodec: zero-length frame")
	}
	if size > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, size)
	}
	if uint64(cap(fr.buf)) < size {
		fr.buf = make([]byte, size)
	}
	fr.buf = fr.buf[:size]
	if _, err := io.ReadFull(fr.br, fr.buf); err != nil {
		return nil, fmt.Errorf("%w: stream ended inside a %d-byte frame", ErrTruncated, size)
	}
	var crc [4]byte
	if _, err := io.ReadFull(fr.br, crc[:]); err != nil {
		return nil, fmt.Errorf("%w: stream ended inside a frame checksum", ErrTruncated)
	}
	if got, want := binfmt.Checksum(fr.buf), binary.LittleEndian.Uint32(crc[:]); got != want {
		return nil, fmt.Errorf("%w: computed %08x, frame carries %08x", ErrCRC, got, want)
	}
	fr.opts.Frames.Inc()
	var prefix [binary.MaxVarintLen64]byte // re-encoded only to count its bytes
	fr.opts.Bytes.Add(uint64(binary.PutUvarint(prefix[:], size)) + size + 4)
	return fr.buf, nil
}
