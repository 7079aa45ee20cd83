package wirecodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/asn"
	"repro/internal/binfmt"
	"repro/internal/dataset"
	"repro/internal/geo"
	"repro/internal/lastmile"
	"repro/internal/netaddr"
	"repro/internal/sample"
)

// genPing draws a random but schema-valid Sample: enum fields stay in
// their parseable ranges so the same record survives the NDJSON/CSV
// reference path, while RTTs use full-precision floats that CSV's
// 6-decimal quantization cannot represent.
func genPing(rng *rand.Rand) sample.Sample {
	s := sample.Sample{
		VP: sample.VantagePoint{
			ProbeID:   fmt.Sprintf("probe-%d", rng.Intn(500)),
			Platform:  []string{"speedchecker", "atlas"}[rng.Intn(2)],
			Country:   []string{"DE", "US", "JP", "BR", "KE", "IN"}[rng.Intn(6)],
			Continent: geo.Continent(1 + rng.Intn(6)),
			ISP:       asn.Number(rng.Uint32()),
			Access:    lastmile.Access(rng.Intn(3)),
		},
		Target: sample.Target{
			Region:    fmt.Sprintf("region-%d", rng.Intn(60)),
			Provider:  []string{"AMZN", "GCP", "MSFT"}[rng.Intn(3)],
			Country:   []string{"IE", "US", "SG", "ZA"}[rng.Intn(4)],
			Continent: geo.Continent(1 + rng.Intn(6)),
			IP:        netaddr.IP(rng.Uint32()),
		},
		Protocol: sample.Protocol(rng.Intn(2)),
		RTTms:    rng.Float64()*300 + rng.Float64()*1e-9, // sub-CSV-precision bits
		Cycle:    rng.Intn(12),
	}
	// The decoders re-derive VTime from (cycle, country); stamping the
	// fixture the same way keeps round trips DeepEqual-exact.
	s.VTime = sample.VTimeOf(s.Cycle, s.VP.Country)
	return s
}

func genTrace(rng *rand.Rand) sample.TraceSample {
	p := genPing(rng)
	t := sample.TraceSample{VP: p.VP, Target: p.Target, Cycle: p.Cycle, VTime: p.VTime}
	n := rng.Intn(12)
	for i := 0; i < n; i++ {
		hop := sample.Hop{TTL: i + 1, RTTms: rng.Float64() * 250, Responded: rng.Intn(4) > 0}
		// The JSONL reference format only carries an address for hops
		// that responded; keep the fixture representable there so the
		// cross-codec comparison stays exact.
		if hop.Responded {
			hop.IP = netaddr.IP(rng.Uint32())
		}
		t.Hops = append(t.Hops, hop)
	}
	if n > 0 {
		// Keep Reached() semantics representative on some traces.
		t.Hops[n-1].Responded = true
		t.Hops[n-1].IP = t.Target.IP
	}
	return t
}

func genRecords(seed int64, nPings, nTraces int) ([]sample.Sample, []sample.TraceSample) {
	rng := rand.New(rand.NewSource(seed))
	pings := make([]sample.Sample, nPings)
	for i := range pings {
		pings[i] = genPing(rng)
	}
	traces := make([]sample.TraceSample, nTraces)
	for i := range traces {
		traces[i] = genTrace(rng)
	}
	return pings, traces
}

// encodeStream writes the records interleaved (the campaign collector
// interleaves pings and traces) and seals the stream.
func encodeStream(t *testing.T, pings []sample.Sample, traces []sample.TraceSample) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	ti := 0
	for i, p := range pings {
		if err := w.Ping(p); err != nil {
			t.Fatalf("Ping: %v", err)
		}
		// Roughly one trace per four pings, in stream order.
		if i%4 == 0 && ti < len(traces) {
			if err := w.Trace(traces[ti]); err != nil {
				t.Fatalf("Trace: %v", err)
			}
			ti++
		}
	}
	for ; ti < len(traces); ti++ {
		if err := w.Trace(traces[ti]); err != nil {
			t.Fatalf("Trace: %v", err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return buf.Bytes()
}

func decodeStream(t *testing.T, raw []byte) ([]sample.Sample, []sample.TraceSample) {
	t.Helper()
	var pings []sample.Sample
	var traces []sample.TraceSample
	_, _, err := NewReader(bytes.NewReader(raw), Options{}).Scan(
		func(s sample.Sample) error { pings = append(pings, s); return nil },
		func(tr sample.TraceSample) error { traces = append(traces, tr); return nil },
	)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return pings, traces
}

// The wire codec must round-trip every field of every record with bit
// exactness — compared against the NDJSON/CSV reference path, which
// quantizes ping RTTs to 6 decimals.
func TestRoundTripExactVsNDJSON(t *testing.T) {
	pings, traces := genRecords(7, 1500, 400)
	raw := encodeStream(t, pings, traces)

	gotPings, gotTraces := decodeStream(t, raw)
	if !reflect.DeepEqual(gotPings, pings) {
		t.Fatalf("wire ping round-trip diverged (%d vs %d records)", len(gotPings), len(pings))
	}
	if !reflect.DeepEqual(gotTraces, traces) {
		t.Fatalf("wire trace round-trip diverged (%d vs %d records)", len(gotTraces), len(traces))
	}

	// Reference path: the published dataset's CSV/JSONL codecs.
	var csvBuf, jsonlBuf bytes.Buffer
	fs := dataset.NewFileSink(&csvBuf, &jsonlBuf)
	for _, p := range pings {
		if err := fs.Ping(p); err != nil {
			t.Fatalf("csv ping: %v", err)
		}
	}
	for _, tr := range traces {
		if err := fs.Trace(tr); err != nil {
			t.Fatalf("jsonl trace: %v", err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatalf("file sink close: %v", err)
	}
	csvPings, err := dataset.ReadPingsCSV(bytes.NewReader(csvBuf.Bytes()))
	if err != nil {
		t.Fatalf("csv scan: %v", err)
	}
	jsonTraces, err := dataset.ReadTracesJSONL(bytes.NewReader(jsonlBuf.Bytes()))
	if err != nil {
		t.Fatalf("jsonl scan: %v", err)
	}

	quantized := 0
	for i := range pings {
		w, c := gotPings[i], csvPings[i]
		// Every non-RTT field agrees across all three representations.
		w.RTTms, c.RTTms = 0, 0
		if !reflect.DeepEqual(w, c) {
			t.Fatalf("ping %d: wire and csv disagree on non-RTT fields:\nwire %+v\ncsv  %+v", i, w, c)
		}
		if gotPings[i].RTTms != pings[i].RTTms {
			t.Fatalf("ping %d: wire RTT %v != original %v", i, gotPings[i].RTTms, pings[i].RTTms)
		}
		if csvPings[i].RTTms != pings[i].RTTms {
			quantized++ // CSV's 6-decimal cells drop the low bits
		}
		if math.Abs(csvPings[i].RTTms-pings[i].RTTms) > 1e-6 {
			t.Fatalf("ping %d: csv RTT diverged beyond its quantization: %v vs %v",
				i, csvPings[i].RTTms, pings[i].RTTms)
		}
	}
	if quantized == 0 {
		t.Error("fixture never exercised CSV quantization; sub-1e-6 RTT bits expected")
	}
	if !reflect.DeepEqual(jsonTraces, gotTraces) {
		t.Fatalf("wire and jsonl trace decodes disagree")
	}
}

// Cutting the stream anywhere must yield ErrTruncated (mid-frame or
// missing EOF), never a silent partial decode or a panic.
func TestTruncationDetected(t *testing.T) {
	pings, traces := genRecords(11, 300, 60)
	raw := encodeStream(t, pings, traces)
	for _, cut := range []int{0, 1, 4, 5, 6, len(raw) / 3, len(raw) / 2, len(raw) - 5, len(raw) - 1} {
		_, _, err := NewReader(bytes.NewReader(raw[:cut]), Options{}).Scan(nil, nil)
		if err == nil {
			t.Fatalf("cut at %d/%d decoded cleanly", cut, len(raw))
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d/%d: got %v, want ErrTruncated", cut, len(raw), err)
		}
	}
}

// A flipped payload byte must fail the CRC, not decode to wrong data.
func TestCorruptionFailsCRC(t *testing.T) {
	pings, traces := genRecords(13, 200, 40)
	raw := encodeStream(t, pings, traces)
	for _, idx := range []int{8, 64, len(raw) / 2, len(raw) - 6} {
		mut := append([]byte(nil), raw...)
		mut[idx] ^= 0x40
		_, _, err := NewReader(bytes.NewReader(mut), Options{}).Scan(nil, nil)
		if err == nil {
			t.Fatalf("flip at %d decoded cleanly", idx)
		}
	}
	// Flip specifically inside the first frame's payload → ErrCRC.
	mut := append([]byte(nil), raw...)
	mut[8] ^= 0x01
	if _, _, err := NewReader(bytes.NewReader(mut), Options{}).Scan(nil, nil); !errors.Is(err, ErrCRC) {
		t.Fatalf("payload flip: got %v, want ErrCRC", err)
	}
}

// Version skew and bad magic are refused up front.
func TestPreambleValidation(t *testing.T) {
	raw := encodeStream(t, []sample.Sample{genPing(rand.New(rand.NewSource(1)))}, nil)

	skew := append([]byte(nil), raw...)
	skew[4] = Version + 1
	if _, _, err := NewReader(bytes.NewReader(skew), Options{}).Scan(nil, nil); !errors.Is(err, ErrVersion) {
		t.Fatalf("version skew: got %v, want ErrVersion", err)
	}

	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, _, err := NewReader(bytes.NewReader(bad), Options{}).Scan(nil, nil); !errors.Is(err, ErrMagic) {
		t.Fatalf("bad magic: got %v, want ErrMagic", err)
	}
}

// Control frames interleave transparently with record batches, and the
// mid-stream Close (flush) that RunCampaigns issues between campaigns
// must not corrupt the stream.
func TestControlFramesAndMidStreamClose(t *testing.T) {
	pings, traces := genRecords(17, 90, 20)
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	for i, p := range pings {
		if err := w.Ping(p); err != nil {
			t.Fatal(err)
		}
		if i == 30 {
			if err := w.Close(); err != nil { // campaign boundary
				t.Fatal(err)
			}
			if err := w.Frames().WriteFrame(append([]byte{FrameControl}, `{"type":"heartbeat"}`...)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tr := range traces {
		if err := w.Trace(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	gotPings, gotTraces := decodeStream(t, buf.Bytes())
	if !reflect.DeepEqual(gotPings, pings) || !reflect.DeepEqual(gotTraces, traces) {
		t.Fatal("stream with control frames and mid-stream flush diverged")
	}
}

// The EOF totals must match the records the stream actually carries.
func TestEOFTotalsChecked(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	if err := w.Ping(genPing(rand.New(rand.NewSource(3)))); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Forge an EOF frame promising more records than were written.
	if err := w.Frames().WriteFrame(EncodeEOF(5, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Frames().Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewReader(bytes.NewReader(buf.Bytes()), Options{}).Scan(nil, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("forged totals: got %v, want ErrTruncated", err)
	}
}

// An empty finished stream decodes to zero records, cleanly.
func TestEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	p, tr, err := NewReader(bytes.NewReader(buf.Bytes()), Options{}).Scan(nil, nil)
	if err != nil || p != 0 || tr != 0 {
		t.Fatalf("empty stream: pings=%d traces=%d err=%v", p, tr, err)
	}
	// And a zero-byte reader is truncated, not clean.
	if _, _, err := NewReader(bytes.NewReader(nil), Options{}).Scan(nil, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("zero-byte stream: got %v, want ErrTruncated", err)
	}
}

var errStop = errors.New("stop")

// Callback errors abort the scan and surface as-is.
func TestCallbackErrorPropagates(t *testing.T) {
	pings, _ := genRecords(23, 10, 0)
	raw := encodeStream(t, pings, nil)
	_, _, err := NewReader(bytes.NewReader(raw), Options{}).Scan(
		func(sample.Sample) error { return errStop }, nil)
	if !errors.Is(err, errStop) {
		t.Fatalf("got %v, want errStop", err)
	}
}

// The frame reader must be driveable from any io.Reader, including one
// that returns a byte at a time (a slow TCP peer).
func TestOneByteAtATimeReader(t *testing.T) {
	pings, traces := genRecords(29, 120, 30)
	raw := encodeStream(t, pings, traces)
	r := iotest(bytes.NewReader(raw))
	var nP, nT int
	_, _, err := NewReader(r, Options{}).Scan(
		func(sample.Sample) error { nP++; return nil },
		func(sample.TraceSample) error { nT++; return nil })
	if err != nil || nP != len(pings) || nT != len(traces) {
		t.Fatalf("one-byte reader: pings=%d traces=%d err=%v", nP, nT, err)
	}
}

type oneByteReader struct{ r io.Reader }

func iotest(r io.Reader) io.Reader { return &oneByteReader{r} }

func (o *oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

// A hostile or buggy worker that introduces a fresh dictionary string
// with every field — 16 MiB frames of 1-byte strings, forever — must
// hit ErrDictFull, not grow the coordinator's per-connection dictionary
// without bound. The stream below is CRC-valid and every record parses;
// only the number of first sightings is wrong.
func TestDictionaryCapped(t *testing.T) {
	fresh := []byte{0, 1, 'x'} // id 0: inline string "x", assigned the next id
	var rec []byte
	for i := 0; i < 3; i++ { // VP: probe, platform, country
		rec = append(rec, fresh...)
	}
	rec = append(rec, 1, 0, 0) // continent, ISP, access
	for i := 0; i < 3; i++ {   // target: region, provider, country
		rec = append(rec, fresh...)
	}
	rec = append(rec, 1, 0, 0)            // continent, IP, protocol
	rec = binfmt.AppendFloat64(rec, 12.5) // RTT
	rec = binfmt.AppendZigzag(rec, 0)     // cycle delta
	const perFrame = 4096                 // 6 strings each
	frames := maxDict/(6*perFrame) + 2    // enough to cross the cap
	payload := binary.AppendUvarint([]byte{FramePings}, perFrame)
	payload = append(payload, bytes.Repeat(rec, perFrame)...)

	var buf bytes.Buffer
	fw := NewFrameWriter(&buf, Options{})
	for i := 0; i < frames; i++ {
		if err := fw.WriteFrame(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf, Options{})
	pings, _, err := r.Scan(nil, nil)
	if !errors.Is(err, ErrDictFull) {
		t.Fatalf("Scan past the dictionary cap: %v after %d pings, want ErrDictFull", err, pings)
	}
	if got := len(r.dec.dict); got != maxDict {
		t.Errorf("dictionary holds %d strings after the refusal, want exactly the cap %d", got, maxDict)
	}
	if want := uint64(maxDict / 6); pings != want {
		t.Errorf("delivered %d pings before the refusal, want %d", pings, want)
	}
}
