package wirecodec

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/binfmt"
	"repro/internal/sample"
)

// The record stream's reading side and its EOF seal live here: the
// coordinator decodes frames through FrameReader and Decoder, so only
// the golden, fuzz and round-trip tests need a stream Reader.

// NewWriter builds a Writer over its own FrameWriter on w.
func NewWriter(w io.Writer, opts Options) *Writer {
	return NewStreamWriter(NewFrameWriter(w, opts))
}

// Frames returns the underlying FrameWriter, for interleaving control
// frames on the same stream.
func (w *Writer) Frames() *FrameWriter { return w.fw }

// Finish flushes everything and writes the EOF frame with the stream
// totals. The Writer must not be used afterwards.
func (w *Writer) Finish() error {
	if err := w.Close(); err != nil {
		return err
	}
	if err := w.fw.WriteFrame(EncodeEOF(w.nPings, w.nTrace)); err != nil {
		return err
	}
	return w.fw.Flush()
}

// EncodeEOF builds the FrameEOF payload carrying stream totals.
func EncodeEOF(pings, traces uint64) []byte {
	dst := []byte{FrameEOF}
	dst = binary.AppendUvarint(dst, pings)
	return binary.AppendUvarint(dst, traces)
}

// DecodeEOF parses a FrameEOF payload into its stream totals.
func DecodeEOF(payload []byte) (pings, traces uint64, err error) {
	if len(payload) < 1 || payload[0] != FrameEOF {
		return 0, 0, fmt.Errorf("wirecodec: not an EOF frame")
	}
	c := binfmt.NewDec(payload[1:])
	pings, traces = c.Uvarint(), c.Uvarint()
	return pings, traces, c.End()
}

// Reader decodes a finished record stream (one written through Writer
// and sealed by Finish).
type Reader struct {
	fr  *FrameReader
	dec *Decoder
}

// NewReader wraps r.
func NewReader(r io.Reader, opts Options) *Reader {
	return &Reader{fr: NewFrameReader(r, opts), dec: NewDecoder()}
}

// Scan walks the stream in order, invoking the callbacks per record
// (either may be nil to skip that record kind), until the EOF frame.
// It returns the stream totals after verifying them against the
// records actually delivered; a stream that ends without its EOF frame
// reports ErrTruncated. Control frames are skipped — a sample-only
// consumer may read a control-bearing stream.
func (r *Reader) Scan(onPing func(sample.Sample) error, onTrace func(sample.TraceSample) error) (pings, traces uint64, err error) {
	var seenPings, seenTraces uint64
	for {
		payload, err := r.fr.ReadFrame()
		if err != nil {
			if err == io.EOF {
				return seenPings, seenTraces, fmt.Errorf("%w: stream ended without an EOF frame", ErrTruncated)
			}
			return seenPings, seenTraces, err
		}
		switch payload[0] {
		case FramePings:
			err = r.dec.DecodePings(payload, func(s sample.Sample) error {
				seenPings++
				if onPing != nil {
					return onPing(s)
				}
				return nil
			})
		case FrameTraces:
			err = r.dec.DecodeTraces(payload, func(t sample.TraceSample) error {
				seenTraces++
				if onTrace != nil {
					return onTrace(t)
				}
				return nil
			})
		case FrameControl:
			// Not ours to interpret.
		case FrameEOF:
			wantPings, wantTraces, err := DecodeEOF(payload)
			if err != nil {
				return seenPings, seenTraces, err
			}
			if wantPings != seenPings || wantTraces != seenTraces {
				return seenPings, seenTraces, fmt.Errorf(
					"%w: EOF frame promises %d pings / %d traces, stream carried %d / %d",
					ErrTruncated, wantPings, wantTraces, seenPings, seenTraces)
			}
			return seenPings, seenTraces, nil
		default:
			err = fmt.Errorf("wirecodec: unknown frame type 0x%02x", payload[0])
		}
		if err != nil {
			return seenPings, seenTraces, err
		}
	}
}
