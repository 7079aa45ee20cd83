// Package faults is the deterministic fault-injection layer of the
// reproduction. The paper's six-month campaign ran against a hostile
// substrate — transient Android probes (§3.3), lost pings, truncated
// traceroutes, API quota errors — and this package makes those failure
// modes injectable so the campaign engine can be exercised, and proven
// resilient, under each of them.
//
// Every decision is a pure function of (plan seed, fault kind, probe,
// region, cycle, attempt): two runs under the same plan inject exactly
// the same faults, so chaos campaigns stay as reproducible as clean
// ones. The zero value of Plan injects nothing, and a nil Injector is
// always treated as fault-free by the consumers in internal/netsim and
// internal/measure.
package faults

import (
	"errors"
	"fmt"

	"repro/internal/detrand"
)

// Op identifies which measurement of a task a ping fault applies to.
type Op uint8

// Measurement operations.
const (
	OpPingTCP Op = iota
	OpPingICMP
)

// PingFault is the control-plane outcome of one ping attempt. The zero
// value is a clean attempt.
type PingFault struct {
	// Lost means no reply came back at all.
	Lost bool
	// DelayMs is added response latency; the campaign's per-task
	// deadline turns large delays into timeouts.
	DelayMs float64
}

// TraceFault shapes one traceroute. The zero value is a clean trace.
type TraceFault struct {
	// Lost drops the traceroute outright (never launched/answered).
	Lost bool
	// MaxHops, when positive, truncates the trace to at most this many
	// hops — the capture dies mid-path and the target is never seen.
	MaxHops int
	// DropHopProb is extra per-hop unresponsiveness layered on top of
	// the simulator's baseline (missing hops inside the trace).
	DropHopProb float64
}

// Injector decides, deterministically, which faults strike a campaign.
// internal/measure consults ProbeDropout, Ping, the Lost bit of Trace
// and Sink; internal/netsim consults CorruptRTT and the data-plane
// fields of Trace. A nil Injector means no faults.
type Injector interface {
	// ProbeDropout reports whether a probe that answered the discovery
	// poll vanishes before measuring this cycle — the mid-campaign
	// churn of §3.3's transient Android probes.
	ProbeDropout(probeID string, cycle int) bool
	// Ping returns the fault for one ping attempt. Retries pass
	// increasing attempt numbers, so transient loss can clear.
	Ping(probeID, regionID string, op Op, cycle, attempt int) PingFault
	// Trace returns the fault for one traceroute. The same draw is
	// visible to the campaign (Lost) and the simulator (truncation),
	// keyed only by the pair and cycle, so both layers agree.
	Trace(probeID, regionID string, cycle int) TraceFault
	// CorruptRTT may replace a measured RTT with an outlier — the
	// corrupted samples a real platform delivers.
	CorruptRTT(probeID, regionID string, cycle int, rtt float64) float64
	// Sink returns the error injected into the seq'th sink write: nil,
	// a Transient error (worth retrying), or a permanent one.
	Sink(seq int) error
}

// Transient wraps an error that is worth retrying — the API-quota blip
// or 5xx a measurement platform returns under load. Non-transient sink
// errors are permanent: the campaign degrades instead of retrying.
type Transient struct{ Err error }

// Error implements error.
func (t Transient) Error() string { return "transient: " + t.Err.Error() }

// Unwrap exposes the underlying error.
func (t Transient) Unwrap() error { return t.Err }

// IsTransient reports whether err is (or wraps) a Transient error.
func IsTransient(err error) bool {
	var t Transient
	return errors.As(err, &t)
}

// ErrQuota is the injected transient "API quota exceeded" error.
var ErrQuota = errors.New("faults: api quota exceeded")

// ErrSinkDown is the injected permanent sink failure.
var ErrSinkDown = errors.New("faults: sink permanently unavailable")

// Plan is a probability table implementing Injector. All fields are
// independent per-event probabilities in [0,1]; the zero value injects
// nothing. Draws hash (Seed, kind, keys), never a shared RNG, so a Plan
// is safe for concurrent use and immune to evaluation order.
type Plan struct {
	// Name labels the plan in reports ("flaky-wireless", ...).
	Name string
	// Seed decorrelates the fault stream from the world seed.
	Seed int64

	// Dropout is the chance a discovered probe vanishes for the rest of
	// the cycle before measuring.
	Dropout float64
	// PingLoss is the per-attempt chance a ping gets no reply.
	PingLoss float64
	// PingDelay is the per-attempt chance of a slow reply of
	// PingDelayMs — long enough to trip per-task deadlines.
	PingDelay   float64
	PingDelayMs float64
	// RTTOutlier is the chance a delivered RTT is corrupted by a
	// factor around RTTOutlierScale.
	RTTOutlier      float64
	RTTOutlierScale float64
	// TraceLoss drops a whole traceroute; TraceTruncate cuts one short
	// (2–8 hops survive); HopDrop is extra per-hop unresponsiveness.
	TraceLoss     float64
	TraceTruncate float64
	HopDrop       float64
	// SinkTransient is the per-write chance of a retryable sink error;
	// SinkFailAfter, when positive, makes write seq ≥ SinkFailAfter
	// fail permanently (the campaign must spill and continue).
	SinkTransient float64
	SinkFailAfter int
	// Partition makes this fraction of probes unreachable — every ping
	// and trace lost — during cycles [PartitionFrom, PartitionTo).
	Partition                  float64
	PartitionFrom, PartitionTo int
}

// Draw tags keep the per-kind fault streams independent.
const (
	tagDropout byte = iota + 1
	tagPingLoss
	tagPingDelay
	tagOutlier
	tagOutlierScale
	tagTraceLoss
	tagTraceTrunc
	tagTraceLen
	tagSink
	tagPartition
)

// u returns a uniform [0,1) draw keyed by the tag, two string keys and
// up to three integers.
func (p *Plan) u(tag byte, a, b string, n1, n2, n3 int) float64 {
	h := detrand.NewHash().Int64(p.Seed).Byte(tag).Str(a).Byte(0).Str(b)
	for _, n := range [...]int{n1, n2, n3} {
		h = h.Bytes(byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
	return h.Uniform()
}

// partitioned reports whether the probe sits behind the partition
// during this cycle. Membership hashes only the probe, so a partitioned
// probe stays unreachable for the whole window — retries must not save
// it; the circuit breaker must.
func (p *Plan) partitioned(probeID string, cycle int) bool {
	if p.Partition <= 0 || cycle < p.PartitionFrom || cycle >= p.PartitionTo {
		return false
	}
	return p.u(tagPartition, probeID, "", 0, 0, 0) < p.Partition
}

// ProbeDropout implements Injector.
func (p *Plan) ProbeDropout(probeID string, cycle int) bool {
	if p == nil || p.Dropout <= 0 {
		return false
	}
	return p.u(tagDropout, probeID, "", cycle, 0, 0) < p.Dropout
}

// Ping implements Injector.
func (p *Plan) Ping(probeID, regionID string, op Op, cycle, attempt int) PingFault {
	if p == nil {
		return PingFault{}
	}
	if p.partitioned(probeID, cycle) {
		return PingFault{Lost: true}
	}
	var f PingFault
	if p.PingLoss > 0 && p.u(tagPingLoss, probeID, regionID, int(op), cycle, attempt) < p.PingLoss {
		f.Lost = true
		return f
	}
	if p.PingDelay > 0 && p.u(tagPingDelay, probeID, regionID, int(op), cycle, attempt) < p.PingDelay {
		f.DelayMs = p.PingDelayMs
	}
	return f
}

// Trace implements Injector.
func (p *Plan) Trace(probeID, regionID string, cycle int) TraceFault {
	if p == nil {
		return TraceFault{}
	}
	if p.partitioned(probeID, cycle) {
		return TraceFault{Lost: true}
	}
	var f TraceFault
	if p.TraceLoss > 0 && p.u(tagTraceLoss, probeID, regionID, cycle, 0, 0) < p.TraceLoss {
		f.Lost = true
		return f
	}
	if p.TraceTruncate > 0 && p.u(tagTraceTrunc, probeID, regionID, cycle, 0, 0) < p.TraceTruncate {
		// The capture dies 2–8 hops in: deep enough to keep the
		// last-mile hops, shallow enough to lose the target.
		f.MaxHops = 2 + int(p.u(tagTraceLen, probeID, regionID, cycle, 0, 0)*6)
	}
	f.DropHopProb = p.HopDrop
	return f
}

// CorruptRTT implements Injector.
func (p *Plan) CorruptRTT(probeID, regionID string, cycle int, rtt float64) float64 {
	if p == nil || p.RTTOutlier <= 0 {
		return rtt
	}
	if p.u(tagOutlier, probeID, regionID, cycle, 0, 0) >= p.RTTOutlier {
		return rtt
	}
	scale := p.RTTOutlierScale
	if scale <= 1 {
		scale = 4
	}
	// Outliers spread over [scale/2, 3·scale/2): a retransmission-style
	// spike, not a fixed multiple that a filter could subtract.
	return rtt * scale * (0.5 + p.u(tagOutlierScale, probeID, regionID, cycle, 0, 0))
}

// Sink implements Injector.
func (p *Plan) Sink(seq int) error {
	if p == nil {
		return nil
	}
	if p.SinkFailAfter > 0 && seq >= p.SinkFailAfter {
		return ErrSinkDown
	}
	if p.SinkTransient > 0 && p.u(tagSink, "", "", seq, 0, 0) < p.SinkTransient {
		return Transient{Err: ErrQuota}
	}
	return nil
}

// String summarizes the plan for reports and the CLI.
func (p *Plan) String() string {
	if p == nil {
		return "none"
	}
	name := p.Name
	if name == "" {
		name = "custom"
	}
	return fmt.Sprintf("%s (dropout %.0f%%, ping loss %.1f%%, delay %.1f%%, outlier %.1f%%, "+
		"trace loss %.1f%%, truncate %.1f%%, sink transient %.1f%%, partition %.0f%%)",
		name, 100*p.Dropout, 100*p.PingLoss, 100*p.PingDelay, 100*p.RTTOutlier,
		100*p.TraceLoss, 100*p.TraceTruncate, 100*p.SinkTransient, 100*p.Partition)
}
