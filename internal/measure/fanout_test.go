package measure

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sample"
)

// TestSinksFanOut runs the same seeded campaign twice — once
// materializing, once fanning out to two StoreSinks through the bus —
// and requires all three record streams to be identical.
func TestSinksFanOut(t *testing.T) {
	base, _, err := mustNew(t, smallConfig()).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	a := dataset.NewStoreSink(nil)
	b := dataset.NewStoreSink(nil)
	cfg := smallConfig()
	cfg.Sinks = []dataset.Sink{a, b}
	spill, st, err := mustNew(t, cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.SinkDegraded || st.Spilled > 0 {
		t.Fatalf("healthy sinks degraded: %+v", st)
	}
	if np, nt := spill.Len(); np != 0 || nt != 0 {
		t.Fatalf("returned store should be empty when sinks are healthy, got %d pings, %d traces", np, nt)
	}
	// Both bus sinks see the one delivery order, so they must match
	// record-for-record.
	if !reflect.DeepEqual(a.Store.Pings, b.Store.Pings) || !reflect.DeepEqual(a.Store.Traces, b.Store.Traces) {
		t.Error("the two bus sinks received different streams")
	}
	// Worker-completion order varies between runs, so the comparison with
	// the materialized baseline is as multisets.
	if got, want := multiset(a.Store), multiset(base); !reflect.DeepEqual(got, want) {
		t.Error("fan-out record multiset diverges from the materialized run")
	}
}

// multiset counts records irrespective of arrival order.
func multiset(ds *dataset.Store) map[string]int {
	m := map[string]int{}
	for i := range ds.Pings {
		m[fmt.Sprintf("p%+v", ds.Pings[i])]++
	}
	for i := range ds.Traces {
		m[fmt.Sprintf("t%+v", ds.Traces[i])]++
	}
	return m
}

// failAfterSink fails every ping after the first n.
type failAfterSink struct {
	n     int
	seen  int
	limit error
}

func (f *failAfterSink) Ping(dataset.PingRecord) error {
	f.seen++
	if f.seen > f.n {
		return f.limit
	}
	return nil
}
func (f *failAfterSink) Trace(dataset.TracerouteRecord) error { return nil }
func (f *failAfterSink) Close() error                         { return nil }

// TestSinksFanOutDegrades checks that a dying bus sink degrades the
// streaming path exactly like a dying direct sink: the campaign
// finishes, the remainder spills into the returned store, and the error
// is reported. A one-slot bus surfaces the failure within a record or
// two of the one that caused it, so the spill is never empty.
func TestSinksFanOutDegrades(t *testing.T) {
	boom := errors.New("disk full")
	bad := &failAfterSink{n: 5, limit: boom}
	good := dataset.NewStoreSink(nil)
	cfg := smallConfig()
	cfg.Sinks = []dataset.Sink{sample.NewBus(sample.BusOptions{Buffer: 1}, bad, good)}
	spill, st, err := mustNew(t, cfg).Run(context.Background())
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if !st.SinkDegraded {
		t.Fatal("SinkDegraded not set")
	}
	if st.Spilled == 0 {
		t.Fatal("nothing spilled")
	}
	np, _ := spill.Len()
	goodN, _ := good.Store.Len()
	if goodN+np < st.Pings {
		t.Errorf("records lost: %d delivered + %d spilled < %d pings", goodN, np, st.Pings)
	}
}
