package stats

// Shift is the exact Mann-Whitney AUC shift score of after against the
// sample s, taken as the before side: P(after > s) + ½·P(after = s).
// It is the probability that a random post-window observation exceeds
// a random pre-window one — 0.5 means no shift, 1.0 a complete upward
// shift (regression, for RTTs), 0.0 a complete downward shift
// (improvement). The walk is O(n+m) and allocation-free. Either side
// empty returns 0.5 (no evidence of a shift).
func (s Sorted) Shift(after Sorted) float64 {
	n, m := len(s), len(after)
	if n == 0 || m == 0 {
		return 0.5
	}
	// For each after[j], count the before observations strictly below
	// it plus half the ties. Both vectors are sorted, so two cursors
	// over s (strictly-less and less-or-equal) advance monotonically.
	var u float64
	lt, le := 0, 0
	for _, v := range after {
		for lt < n && s[lt] < v {
			lt++
		}
		for le < n && s[le] <= v {
			le++
		}
		u += float64(lt) + float64(le-lt)/2
	}
	return u / (float64(n) * float64(m))
}
