package obs

import "time"

// After returns a channel that delivers one value after d has elapsed
// on the wall clock. Like Time, it exists so deterministic-scope
// packages can wait out an *operational* delay — a heartbeat period, a
// lease-reaper tick — without referencing the clock themselves: the wait
// lives here, inside the one allowlisted package, and no simulation
// decision may depend on it. Non-positive d fires immediately.
func After(d time.Duration) <-chan time.Time {
	return time.After(d)
}
