package measure

import (
	"math"

	"repro/internal/detrand"
)

// backoffMs returns the virtual backoff charged before retry attempt+1:
// exponential in the attempt number, capped at max, with deterministic
// jitter spreading the wait over [d/2, d). u is the jitter draw in
// [0,1).
func backoffMs(base, max float64, attempt int, u float64) float64 {
	d := base * math.Pow(2, float64(attempt))
	if d > max {
		d = max
	}
	return d/2 + d/2*u
}

// jitterU derives the deterministic jitter draw for one retry, keyed by
// the campaign seed and the measurement identity — re-running the same
// campaign replays the same backoff schedule.
func jitterU(seed int64, probe, region string, op, cycle, attempt int) float64 {
	return detrand.NewHash().Int64(seed).Str(probe).Byte(0).Str(region).
		Bytes(byte(op), byte(cycle), byte(cycle>>8), byte(attempt)).Uniform()
}

// breakerEntry is one probe's circuit-breaker state.
type breakerEntry struct {
	// Consecutive counts lost measurements since the last success.
	Consecutive int
	// UntilMin, when nonzero, quarantines the probe until this virtual
	// minute.
	UntilMin float64
	// Trips counts how often this probe's breaker has opened.
	Trips int
}

// breaker is the per-probe circuit breaker: a probe that loses
// threshold measurements in a row is quarantined — no tasks — until a
// cooldown of virtual time passes, then re-admitted with a clean slate.
// It models the operational reality that hammering a dead probe burns
// API quota for nothing. All access is from the dispatch goroutine.
type breaker struct {
	threshold   int
	cooldownMin float64
	probes      map[string]*breakerEntry
}

func newBreaker(threshold int, cooldownMin float64) *breaker {
	return &breaker{threshold: threshold, cooldownMin: cooldownMin,
		probes: make(map[string]*breakerEntry)}
}

// quarantined reports whether the probe is benched at virtual minute
// now, re-admitting it first if its cooldown has expired.
func (b *breaker) quarantined(id string, now float64) bool {
	e := b.probes[id]
	if e == nil || e.UntilMin == 0 {
		return false
	}
	if now < e.UntilMin {
		return true
	}
	// Cooldown over: readmit with a fresh failure budget.
	e.UntilMin = 0
	e.Consecutive = 0
	return false
}

// onResult books one measurement outcome and reports whether this
// failure tripped the breaker.
func (b *breaker) onResult(id string, ok bool, now float64) (tripped bool) {
	e := b.probes[id]
	if ok {
		if e != nil {
			e.Consecutive = 0
		}
		return false
	}
	if e == nil {
		e = &breakerEntry{}
		b.probes[id] = e
	}
	e.Consecutive++
	if e.Consecutive < b.threshold {
		return false
	}
	e.Consecutive = 0
	e.UntilMin = now + b.cooldownMin
	e.Trips++
	return true
}
