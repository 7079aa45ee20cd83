package measure

import "repro/internal/obs"

// campaignMetrics interns every instrument the engine touches once, at
// campaign start, so the hot paths (one ping record, one retry ladder
// step) cost a single atomic add each. All instruments are valid even
// without a registry (see obs: nil-registry constructors), so no call
// site branches on whether observability is enabled.
//
// Naming (DESIGN.md §10): measure_<noun>_total for counters,
// measure_<noun> for gauges, milliseconds for histograms. Labels are
// deliberately absent here — probe and country would be unbounded
// cardinality; per-country sample counts stay in Stats.
type campaignMetrics struct {
	pings, traces        *obs.Counter
	attempts, retries    *obs.Counter
	lost, timedOut       *obs.Counter
	tracesLost           *obs.Counter
	spilled, sinkRetries *obs.Counter
	breakerTrips         *obs.Counter
	quarantineSkips      *obs.Counter
	dropouts             *obs.Counter
	cycleQuotaExhausted  *obs.Counter

	rtt *obs.Histogram
}

func newCampaignMetrics(reg *obs.Registry) *campaignMetrics {
	return &campaignMetrics{
		pings:               reg.Counter("measure_pings_total"),
		traces:              reg.Counter("measure_traceroutes_total"),
		attempts:            reg.Counter("measure_attempts_total"),
		retries:             reg.Counter("measure_retries_total"),
		lost:                reg.Counter("measure_lost_total"),
		timedOut:            reg.Counter("measure_timeouts_total"),
		tracesLost:          reg.Counter("measure_traces_lost_total"),
		spilled:             reg.Counter("measure_spilled_total"),
		sinkRetries:         reg.Counter("measure_sink_retries_total"),
		breakerTrips:        reg.Counter("measure_breaker_trips_total"),
		quarantineSkips:     reg.Counter("measure_quarantine_skips_total"),
		dropouts:            reg.Counter("measure_probe_dropouts_total"),
		cycleQuotaExhausted: reg.Counter("measure_cycle_quota_exhausted_total"),
		rtt:                 reg.Histogram("measure_rtt_ms", obs.RTTBuckets),
	}
}
