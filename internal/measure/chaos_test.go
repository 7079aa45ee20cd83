package measure

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/pipeline"
)

// chaosConfig spans three cycles: the partition opens at cycle 1, its
// probes trip the breaker there, and cycle 2 re-selects some of them
// while still benched (the 24h virtual cooldown outlasts the campaign).
func chaosConfig() Config {
	cfg := smallConfig()
	cfg.Cycles = 3
	cfg.ProbesPerCountry = 3
	return cfg
}

// chaosRun is one campaign's complete output.
type chaosRun struct {
	store *dataset.Store
	stats Stats
}

// runChaos executes the campaign under the named profile ("" = fault
// free), wiring the injector into both the simulator (data plane) and
// the campaign config (control plane), and streaming through a
// StoreSink so sink faults are exercised too.
func runChaos(t *testing.T, profile string) chaosRun {
	t.Helper()
	cfg := chaosConfig()
	sim := netsim.New(testW)
	if profile != "" {
		plan, err := faults.Profile(profile, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		sim.Faults = plan
		cfg.Faults = plan
	}
	sink := dataset.NewStoreSink(nil)
	cfg.Sink = sink
	camp, err := New(sim, testSC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spill, st, err := camp.Run(context.Background())
	if err != nil {
		// Graceful degradation is allowed: a persistent sink failure is
		// surfaced but must not have aborted the campaign.
		if !errors.Is(err, faults.ErrQuota) && !errors.Is(err, faults.ErrSinkDown) {
			t.Fatalf("campaign under %q aborted: %v", profile, err)
		}
		if st.Spilled == 0 || !st.SinkDegraded {
			t.Fatalf("sink error without spill accounting: %+v", st)
		}
	}
	// The complete dataset is the sink's records plus anything spilled
	// after degradation.
	sink.Store.Merge(spill)
	return chaosRun{store: sink.Store, stats: st}
}

// checkLossIdentity verifies the Stats contract Attempts = Pings +
// Retries + Lost and basic cross-field consistency.
func checkLossIdentity(t *testing.T, st Stats) {
	t.Helper()
	if st.Attempts != st.Pings+st.Retries+st.Lost {
		t.Errorf("loss identity broken: Attempts %d != Pings %d + Retries %d + Lost %d",
			st.Attempts, st.Pings, st.Retries, st.Lost)
	}
	if st.TimedOut > st.Retries+st.Lost {
		t.Errorf("TimedOut %d exceeds total failures (%d retries + %d lost)",
			st.TimedOut, st.Retries, st.Lost)
	}
	if st.Pings == 0 {
		t.Error("campaign collected nothing")
	}
}

// f3Medians computes the Figure 3 per-country median map.
func f3Medians(store *dataset.Store) map[string]float64 {
	out := map[string]float64{}
	for _, e := range analysis.CollectStore(store).LatencyMap(5) {
		out[e.Country] = e.MedianMs
	}
	return out
}

// f10Aggregate computes the Figure 10 interconnection shares aggregated
// over providers, weighted by sample count.
func f10Aggregate(t *testing.T, store *dataset.Store) (direct, oneAS, multiAS float64) {
	t.Helper()
	processed := pipeline.NewProcessor(testW).ProcessAll(store)
	rows := analysis.Interconnections(processed)
	if len(rows) == 0 {
		t.Fatal("no interconnection rows")
	}
	total := 0
	for _, r := range rows {
		direct += r.DirectPct * float64(r.N)
		oneAS += r.OneASPct * float64(r.N)
		multiAS += r.MultiASPct * float64(r.N)
		total += r.N
	}
	return direct / float64(total), oneAS / float64(total), multiAS / float64(total)
}

// TestChaosProfiles is the tentpole integration test: under every named
// fault profile the campaign must complete, account for its losses, and
// still reproduce the paper's F3 latency map and F10 peering
// classification within tolerance of the fault-free run.
func TestChaosProfiles(t *testing.T) {
	base := runChaos(t, "")
	checkLossIdentity(t, base.stats)
	if base.stats.Retries != 0 || base.stats.Lost != 0 || base.stats.ProbeDropouts != 0 {
		t.Fatalf("fault-free run booked faults: %+v", base.stats)
	}
	baseF3 := f3Medians(base.store)
	baseD, base1, baseM := f10Aggregate(t, base.store)
	if len(baseF3) < 20 {
		t.Fatalf("baseline F3 map too thin: %d countries", len(baseF3))
	}

	for _, profile := range faults.Names() {
		t.Run(profile, func(t *testing.T) {
			run := runChaos(t, profile)
			st := run.stats
			checkLossIdentity(t, st)

			// Per-profile loss accounting must be non-zero where the
			// profile injects.
			switch profile {
			case faults.ProfileFlakyWireless:
				if st.ProbeDropouts == 0 {
					t.Error("flaky-wireless: no probe dropouts")
				}
				if st.TimedOut == 0 {
					t.Error("flaky-wireless: no timeouts despite 8s delays")
				}
				if st.Retries == 0 || st.Lost == 0 {
					t.Errorf("flaky-wireless: retries %d, lost %d — loss path never exercised",
						st.Retries, st.Lost)
				}
				if st.TracesLost == 0 {
					t.Error("flaky-wireless: no traceroutes lost")
				}
			case faults.ProfileQuotaStorm:
				if st.SinkRetries == 0 {
					t.Error("quota-storm: no transient sink retries")
				}
				if st.TimedOut == 0 {
					t.Error("quota-storm: no slow responses timed out")
				}
			case faults.ProfilePartition:
				if st.Lost == 0 {
					t.Error("partition: no measurements lost")
				}
				if st.Quarantined == 0 {
					t.Error("partition: circuit breaker never tripped on partitioned probes")
				}
				if st.QuarantineSkipped == 0 {
					t.Error("partition: quarantined probes were never benched")
				}
			}

			// F3: the latency map keeps its shape. Most baseline
			// countries survive, and common-country medians stay within
			// max(20ms, 35%) — faults cost samples, not truth.
			got := f3Medians(run.store)
			common := 0
			for country, want := range baseF3 {
				med, ok := got[country]
				if !ok {
					continue
				}
				common++
				tol := math.Max(20, 0.35*want)
				if math.Abs(med-want) > tol {
					t.Errorf("F3 %s: median %.1f vs baseline %.1f (tolerance %.1f)",
						country, med, want, tol)
				}
			}
			if common < len(baseF3)*7/10 {
				t.Errorf("F3 kept only %d of %d baseline countries", common, len(baseF3))
			}

			// F10: the interconnection mix holds. Aggregate shares stay
			// within 15 points and the category ranking is preserved.
			d, one, multi := f10Aggregate(t, run.store)
			for _, c := range []struct {
				name      string
				got, want float64
			}{{"direct", d, baseD}, {"1 AS", one, base1}, {"2+ AS", multi, baseM}} {
				if math.Abs(c.got-c.want) > 15 {
					t.Errorf("F10 %s share = %.1f%%, baseline %.1f%%", c.name, c.got, c.want)
				}
			}
			rank := func(a, b, c float64) [3]int {
				var r [3]int
				vals := []float64{a, b, c}
				for i, v := range vals {
					for _, w := range vals {
						if w > v {
							r[i]++
						}
					}
				}
				return r
			}
			if rank(d, one, multi) != rank(baseD, base1, baseM) {
				t.Errorf("F10 category ranking flipped: (%.1f, %.1f, %.1f) vs baseline (%.1f, %.1f, %.1f)",
					d, one, multi, baseD, base1, baseM)
			}
		})
	}
}
