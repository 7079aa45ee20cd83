// The virtual timeline. The paper's campaign is six months of
// bi-weekly country sweeps (§3.3); this repo models that as an integer
// cycle axis plus a derived millisecond timestamp. Both are pure
// functions of the record's identity — no layer ever reads a wall
// clock to stamp a record — so a replayed window reproduces the exact
// same timeline.
package sample

import "hash/fnv"

// CycleMillis is the virtual duration of one campaign cycle: the
// paper's bi-weekly sweep, two weeks in milliseconds.
const CycleMillis int64 = 14 * 24 * 3600 * 1000

// traceCycleOffset decorates the cycle of the second traceroute a task
// fires (the §3.3 "both directions" pair): the decorated cycle is
// campaignCycle + traceCycleOffset. CampaignCycle strips it.
const traceCycleOffset = 1 << 20

// CampaignCycle normalizes a possibly-decorated cycle index back onto
// the campaign time axis. Cycles below the decoration offset pass
// through unchanged.
func CampaignCycle(c int) int {
	if c >= traceCycleOffset {
		return c - traceCycleOffset
	}
	return c
}

// DecorateTraceCycle marks the second traceroute of a task pair. The
// inverse is CampaignCycle.
func DecorateTraceCycle(c int) int { return c + traceCycleOffset }

// VTimeOf derives the virtual timestamp of a measurement: the start of
// its (normalized) cycle plus a deterministic per-country phase inside
// the cycle, modelling the sweep order in which the campaign visits
// countries. The phase is a hash of the country code, so every record
// from one country lands at the same offset in every cycle — exactly
// what a bi-weekly sweep schedule produces.
func VTimeOf(cycle int, country string) int64 {
	h := fnv.New64a()
	h.Write([]byte(country))
	phase := int64(h.Sum64() % uint64(CycleMillis))
	return int64(CampaignCycle(cycle))*CycleMillis + phase
}

// Window is a half-open cycle interval [From, To). The zero value (and
// any window with To <= 0) is unbounded above; From <= 0 is unbounded
// below — so Window{} selects the whole campaign.
type Window struct {
	From int
	To   int
}

// Contains reports whether the (normalized) cycle falls inside the
// window.
func (w Window) Contains(cycle int) bool {
	c := CampaignCycle(cycle)
	if w.From > 0 && c < w.From {
		return false
	}
	if w.To > 0 && c >= w.To {
		return false
	}
	return true
}

// Overlaps reports whether any cycle in [lo, hi] falls inside the
// window — the zone-map pruning test the store runs per partition.
func (w Window) Overlaps(lo, hi int) bool {
	if w.From > 0 && hi < w.From {
		return false
	}
	if w.To > 0 && lo >= w.To {
		return false
	}
	return true
}

// OverlapsWindow reports whether two windows share at least one cycle.
func (w Window) OverlapsWindow(o Window) bool {
	if w.To > 0 && o.From > 0 && o.From >= w.To {
		return false
	}
	if o.To > 0 && w.From > 0 && w.From >= o.To {
		return false
	}
	return true
}
