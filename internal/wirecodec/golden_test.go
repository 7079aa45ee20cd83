package wirecodec

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asn"
	"repro/internal/geo"
	"repro/internal/lastmile"
	"repro/internal/netaddr"
	"repro/internal/sample"
)

// goldenStream is a stream written by the code that introduced this
// wire Version. The directory name carries the version, so a change of
// layout cannot pass by regenerating the file in place: it has to bump
// Version and commit a new directory beside this one.
var goldenStream = filepath.Join("testdata", fmt.Sprintf("golden-v%d", Version), "stream.cwre")

// goldenRecords is the frozen fixture behind goldenStream: closed forms
// of the loop index, no RNG. It repeats strings (dictionary references),
// moves cycles backwards (negative zigzag deltas), and carries a NaN, a
// negative and a sub-microsecond RTT (exact float bits).
func goldenRecords() ([]sample.Sample, []sample.TraceSample) {
	var pings []sample.Sample
	var traces []sample.TraceSample
	rtts := []float64{12.000000123, 0.25, -3, math.NaN(), 287.5, 1e-7}
	for i := 0; i < 24; i++ {
		cc := []string{"DE", "US", "KE"}[i%3]
		s := sample.Sample{
			VP: sample.VantagePoint{
				ProbeID:   fmt.Sprintf("probe-%d", i%7),
				Platform:  []string{"speedchecker", "atlas"}[i%2],
				Country:   cc,
				Continent: geo.Continent(1 + i%6),
				ISP:       asn.Number(64500 + i*4099),
				Access:    lastmile.Access(i % 3),
			},
			Target: sample.Target{
				Region:    fmt.Sprintf("region-%d", i%5),
				Provider:  []string{"AMZN", "GCP", "MSFT"}[i%3],
				Country:   []string{"IE", "SG"}[i%2],
				Continent: geo.Continent(1 + (i+2)%6),
				IP:        netaddr.IP(0x0a000001 + uint32(i)*0x01010101),
			},
			Protocol: sample.Protocol(i % 2),
			RTTms:    rtts[i%len(rtts)],
			Cycle:    (i * 5) % 12,
		}
		s.VTime = sample.VTimeOf(s.Cycle, cc)
		pings = append(pings, s)
		if i%4 != 0 {
			continue
		}
		tr := sample.TraceSample{VP: s.VP, Target: s.Target, Cycle: s.Cycle, VTime: s.VTime}
		for h := 0; h < i/4; h++ {
			hop := sample.Hop{TTL: 1 + 2*h, RTTms: float64(h)*7.5 + 0.125, Responded: h%3 != 1}
			if hop.Responded {
				hop.IP = netaddr.IP(0xc0a80000 + uint32(h))
			}
			tr.Hops = append(tr.Hops, hop)
		}
		traces = append(traces, tr)
	}
	return pings, traces
}

// writeGoldenStream replays the fixture through a Writer the way a
// cluster worker drives it: records interleaved, a mid-stream Close
// (campaign boundary) followed by a control frame, then Finish.
func writeGoldenStream(tb testing.TB) []byte {
	tb.Helper()
	pings, traces := goldenRecords()
	var buf bytes.Buffer
	w := NewWriter(&buf, Options{})
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	ti := 0
	for i, p := range pings {
		must(w.Ping(p))
		if i%4 == 0 {
			must(w.Trace(traces[ti]))
			ti++
		}
		if i == 9 {
			must(w.Close())
			must(w.Frames().WriteFrame(append([]byte{FrameControl}, `{"type":"heartbeat"}`...)))
		}
	}
	must(w.Finish())
	return buf.Bytes()
}

// TestGoldenWriterReproducesBytes pins the wire layout: today's writer
// must emit the committed stream byte for byte.
func TestGoldenWriterReproducesBytes(t *testing.T) {
	want, err := os.ReadFile(goldenStream)
	if err != nil {
		t.Fatal(err)
	}
	if got := writeGoldenStream(t); !bytes.Equal(got, want) {
		t.Errorf("writer output (%d bytes) differs from the golden stream (%d bytes); a layout change needs a Version bump",
			len(got), len(want))
	}
}

// TestGoldenReaderParses pins the other direction: today's reader must
// decode the committed stream into exactly the fixture's records.
func TestGoldenReaderParses(t *testing.T) {
	raw, err := os.ReadFile(goldenStream)
	if err != nil {
		t.Fatal(err)
	}
	var gotP []sample.Sample
	var gotT []sample.TraceSample
	np, nt, err := NewReader(bytes.NewReader(raw), Options{}).Scan(
		func(s sample.Sample) error { gotP = append(gotP, s); return nil },
		func(tr sample.TraceSample) error { gotT = append(gotT, tr); return nil })
	if err != nil {
		t.Fatal(err)
	}
	pings, traces := goldenRecords()
	if np != uint64(len(pings)) || nt != uint64(len(traces)) {
		t.Fatalf("totals %d/%d, want %d/%d", np, nt, len(pings), len(traces))
	}
	for i := range pings {
		if !eqPing(gotP[i], pings[i]) {
			t.Errorf("ping %d: got %+v, want %+v", i, gotP[i], pings[i])
		}
	}
	for i := range traces {
		if !eqTrace(gotT[i], traces[i]) || gotT[i].VTime != traces[i].VTime {
			t.Errorf("trace %d: got %+v, want %+v", i, gotT[i], traces[i])
		}
	}
}
