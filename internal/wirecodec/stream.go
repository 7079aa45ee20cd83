package wirecodec

import "repro/internal/sample"

// FlushRecords is how many records a Writer batches into one frame
// before writing it: big enough to amortize framing and CRC, small
// enough that a coordinator sees a worker's progress (and liveness)
// continuously.
const FlushRecords = 256

// Writer is a sample.Sink that encodes records into batched binary
// frames. Close flushes (the repo-wide sink contract: Close means
// flush, never invalidate, so campaigns may close it repeatedly).
//
// A Writer may share its FrameWriter with a control plane (the
// cluster worker interleaves JSON control frames); WriteFrame
// serializes the interleaving.
type Writer struct {
	fw     *FrameWriter
	enc    *Encoder
	pings  []sample.Sample
	traces []sample.TraceSample
	buf    []byte
	nPings uint64
	nTrace uint64
}

// NewStreamWriter builds a Writer over an existing (possibly shared)
// FrameWriter.
func NewStreamWriter(fw *FrameWriter) *Writer {
	return &Writer{fw: fw, enc: NewEncoder()}
}

// Ping implements sample.Sink.
func (w *Writer) Ping(s sample.Sample) error {
	w.pings = append(w.pings, s)
	w.nPings++
	if len(w.pings) >= FlushRecords {
		return w.flushPings()
	}
	return nil
}

// Trace implements sample.Sink.
func (w *Writer) Trace(t sample.TraceSample) error {
	w.traces = append(w.traces, t)
	w.nTrace++
	if len(w.traces) >= FlushRecords {
		return w.flushTraces()
	}
	return nil
}

func (w *Writer) flushPings() error {
	if len(w.pings) == 0 {
		return nil
	}
	w.buf = w.enc.EncodePingBatch(w.buf[:0], w.pings)
	w.pings = w.pings[:0]
	return w.fw.WriteFrame(w.buf)
}

func (w *Writer) flushTraces() error {
	if len(w.traces) == 0 {
		return nil
	}
	w.buf = w.enc.EncodeTraceBatch(w.buf[:0], w.traces)
	w.traces = w.traces[:0]
	return w.fw.WriteFrame(w.buf)
}

// Close implements sample.Sink: it flushes pending batches and the
// frame buffer without ending the stream, so a later campaign can keep
// writing (RunCampaigns closes the shared sink set once per campaign).
func (w *Writer) Close() error {
	if err := w.flushPings(); err != nil {
		return err
	}
	if err := w.flushTraces(); err != nil {
		return err
	}
	return w.fw.Flush()
}

// Len returns the (pings, traces) written so far — the per-shard
// accounting a cluster worker reports in shard_done.
func (w *Writer) Len() (pings, traces uint64) { return w.nPings, w.nTrace }
