package obs_test

// Benchmarks live in an external test package so they can drive the
// real spine — campaign engine streaming into the sharded store feed —
// once uninstrumented and once with a registry and tracer attached.
// BenchmarkObsOverhead is the acceptance benchmark for the subsystem:
// the instrumented run must stay within a few percent of the bare one.

import (
	"context"
	"testing"

	"repro/internal/measure"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/probes"
	"repro/internal/store"
	"repro/internal/world"
)

var (
	benchWorld = world.MustBuild(world.Config{Seed: 7})
	benchSim   = netsim.New(benchWorld)
	benchFleet = probes.GenerateSpeedchecker(benchWorld, probes.Config{Seed: 7, Scale: 0.01})
)

// runSpine executes one campaign→feed→seal pass. instrumented attaches
// a fresh registry and tracer exactly the way cmd/cloudy's serve path
// does; uninstrumented leaves both nil so every instrument call takes
// the no-op branch.
func runSpine(b *testing.B, instrumented bool) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var reg *obs.Registry
		ctx := context.Background()
		if instrumented {
			reg = obs.NewRegistry()
			ctx = obs.ContextWithTracer(ctx, obs.NewTracer(0))
		}
		feed := store.NewFeed(pipeline.NewProcessor(benchWorld), store.Options{Obs: reg})
		cfg := measure.Config{
			Seed:                7,
			Cycles:              1,
			ProbesPerCountry:    2,
			TargetsPerProbe:     2,
			MinProbesPerCountry: 2,
			RequestsPerMinute:   60,
			Workers:             4,
			Traceroutes:         true,
			Sink:                feed,
			Obs:                 reg,
		}
		camp, err := measure.New(benchSim, benchFleet, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := camp.Run(ctx); err != nil {
			b.Fatal(err)
		}
		st := feed.SealContext(ctx)
		if n, _ := feed.Len(); n == 0 {
			b.Fatal("spine produced no pings")
		}
		_ = st
	}
}

// BenchmarkObsOverhead compares the full spine with and without
// instrumentation. Compare the two sub-benchmark ns/op figures; the
// instrumented one must stay within ~5%.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("uninstrumented", func(b *testing.B) { runSpine(b, false) })
	b.Run("instrumented", func(b *testing.B) { runSpine(b, true) })
}

// Instrument micro-costs, for sizing the per-event budget.

func BenchmarkCounterInc(b *testing.B) {
	c := obs.NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := obs.NewRegistry().Counter("bench_total")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := obs.NewRegistry().Histogram("bench_ms", obs.RTTBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 250))
	}
}

func BenchmarkNilInstruments(b *testing.B) {
	var reg *obs.Registry
	c := reg.Counter("bench_total")
	h := reg.Histogram("bench_ms", obs.RTTBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(1)
	}
}

func BenchmarkSpanStartEnd(b *testing.B) {
	ctx := obs.ContextWithTracer(context.Background(), obs.NewTracer(0))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := obs.StartSpan(ctx, "bench.op")
		sp.End()
	}
}
