package measure

import (
	"reflect"
	"testing"
)

// TestBreakerTable drives the circuit breaker through scripted outcome
// sequences and checks quarantine-after-K and cooldown re-admission.
func TestBreakerTable(t *testing.T) {
	type step struct {
		ok       bool    // measurement outcome to book
		at       float64 // virtual minute of the outcome
		wantTrip bool    // onResult should report a trip
		checkAt  float64 // minute to query quarantined at afterwards
		wantQuar bool    // expected quarantined answer
	}
	cases := []struct {
		name      string
		threshold int
		cooldown  float64
		steps     []step
	}{
		{
			name: "trips after K consecutive failures", threshold: 3, cooldown: 60,
			steps: []step{
				{ok: false, at: 0, checkAt: 0, wantQuar: false},
				{ok: false, at: 1, checkAt: 1, wantQuar: false},
				{ok: false, at: 2, wantTrip: true, checkAt: 2, wantQuar: true},
			},
		},
		{
			name: "success resets the failure budget", threshold: 3, cooldown: 60,
			steps: []step{
				{ok: false, at: 0},
				{ok: false, at: 1},
				{ok: true, at: 2}, // streak broken
				{ok: false, at: 3},
				{ok: false, at: 4, checkAt: 4, wantQuar: false},
				{ok: false, at: 5, wantTrip: true, checkAt: 5, wantQuar: true},
			},
		},
		{
			name: "cooldown readmits with a fresh budget", threshold: 2, cooldown: 30,
			steps: []step{
				{ok: false, at: 0},
				{ok: false, at: 1, wantTrip: true, checkAt: 10, wantQuar: true},
				// Still benched one minute before the cooldown ends...
				{ok: true, at: 30, checkAt: 30, wantQuar: true},
				// ...readmitted once the cooldown has passed (the check
				// itself re-admits, as the dispatcher's gate does)...
				{ok: true, at: 31, checkAt: 31, wantQuar: false},
				// ...and the budget is fresh: one failure does not
				// re-trip, the second does.
				{ok: false, at: 32, checkAt: 32, wantQuar: false},
				{ok: false, at: 33, wantTrip: true, checkAt: 33, wantQuar: true},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newBreaker(tc.threshold, tc.cooldown)
			for i, s := range tc.steps {
				if got := b.onResult("p", s.ok, s.at); got != s.wantTrip {
					t.Fatalf("step %d: tripped = %v, want %v", i, got, s.wantTrip)
				}
				if s.checkAt != 0 || s.wantQuar {
					if got := b.quarantined("p", s.checkAt); got != s.wantQuar {
						t.Fatalf("step %d: quarantined(%v) = %v, want %v", i, s.checkAt, got, s.wantQuar)
					}
				}
			}
		})
	}
}

// TestBreakerIndependentProbes: one probe's failures never bench
// another.
func TestBreakerIndependentProbes(t *testing.T) {
	b := newBreaker(2, 60)
	b.onResult("bad", false, 0)
	if b.onResult("bad", false, 1) != true {
		t.Fatal("bad probe did not trip")
	}
	if b.quarantined("good", 1) {
		t.Error("untouched probe quarantined")
	}
	if !b.quarantined("bad", 1) {
		t.Error("tripped probe not quarantined")
	}
}

// TestJitterDeterministic pins the jitter contract: the same (seed,
// identity) replays the same draw, different identities and seeds
// decorrelate, and every draw is in [0,1).
func TestJitterDeterministic(t *testing.T) {
	var first []float64
	for attempt := 0; attempt < 5; attempt++ {
		u := jitterU(42, "probe-1", "region-a", 0, 3, attempt)
		if u < 0 || u >= 1 {
			t.Fatalf("jitter draw %v outside [0,1)", u)
		}
		first = append(first, u)
	}
	for attempt := 0; attempt < 5; attempt++ {
		if got := jitterU(42, "probe-1", "region-a", 0, 3, attempt); got != first[attempt] {
			t.Fatalf("replayed jitter differs at attempt %d: %v vs %v", attempt, got, first[attempt])
		}
	}
	distinct := map[float64]bool{}
	for _, u := range first {
		distinct[u] = true
	}
	if len(distinct) < 4 {
		t.Errorf("attempt draws not spread: %v", first)
	}
	if jitterU(43, "probe-1", "region-a", 0, 3, 0) == first[0] {
		t.Error("seed does not decorrelate jitter")
	}
	if jitterU(42, "probe-2", "region-a", 0, 3, 0) == first[0] {
		t.Error("probe does not decorrelate jitter")
	}
	if jitterU(42, "probe-1", "region-a", 1, 3, 0) == first[0] {
		t.Error("op does not decorrelate jitter")
	}
}

// TestBackoffSchedule pins the backoff shape: exponential growth, the
// cap, jitter landing in [d/2, d), and the deterministic sequence under
// a fixed seed.
func TestBackoffSchedule(t *testing.T) {
	// Deterministic endpoints of the jitter range.
	if got := backoffMs(100, 60000, 0, 0); got != 50 {
		t.Errorf("attempt 0 with u=0 → %v, want 50", got)
	}
	if got := backoffMs(100, 60000, 3, 0); got != 400 {
		t.Errorf("attempt 3 with u=0 → %v, want 400 (100·2³/2)", got)
	}
	// The cap clamps deep attempts.
	if got := backoffMs(100, 1000, 10, 0.999); got >= 1000 {
		t.Errorf("capped backoff = %v, want < 1000", got)
	}
	// Jitter stays inside [d/2, d).
	for attempt := 0; attempt < 6; attempt++ {
		d := 100.0 * float64(int(1)<<attempt)
		for _, u := range []float64{0, 0.25, 0.5, 0.999} {
			got := backoffMs(100, 1<<30, attempt, u)
			if got < d/2 || got >= d {
				t.Fatalf("attempt %d u=%v: backoff %v outside [%v, %v)", attempt, u, got, d/2, d)
			}
		}
	}
	// Fixed seed → fixed full schedule (jitter included).
	var a, b []float64
	for attempt := 0; attempt < 4; attempt++ {
		a = append(a, backoffMs(100, 60000, attempt, jitterU(7, "p", "r", 0, 1, attempt)))
		b = append(b, backoffMs(100, 60000, attempt, jitterU(7, "p", "r", 0, 1, attempt)))
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("backoff schedule not reproducible: %v vs %v", a, b)
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1]/2 {
			t.Errorf("schedule not growing roughly exponentially: %v", a)
		}
	}
}
