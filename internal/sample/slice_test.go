package sample

// SliceSource cursors over an in-memory slice, so the tests can drive
// Drain and DrainTraces without a codec.
type SliceSource struct {
	xs []Sample
	i  int
}

// NewSliceSource wraps xs without copying; the slice must not be
// mutated while the cursor is live.
func NewSliceSource(xs []Sample) *SliceSource { return &SliceSource{xs: xs} }

// Next implements Source.
func (s *SliceSource) Next() (Sample, bool, error) {
	if s.i >= len(s.xs) {
		return Sample{}, false, nil
	}
	s.i++
	return s.xs[s.i-1], true, nil
}

// SliceTraceSource cursors over an in-memory traceroute slice.
type SliceTraceSource struct {
	xs []TraceSample
	i  int
}

// NewSliceTraceSource wraps xs without copying.
func NewSliceTraceSource(xs []TraceSample) *SliceTraceSource {
	return &SliceTraceSource{xs: xs}
}

// Next implements TraceSource.
func (s *SliceTraceSource) Next() (TraceSample, bool, error) {
	if s.i >= len(s.xs) {
		return TraceSample{}, false, nil
	}
	s.i++
	return s.xs[s.i-1], true, nil
}
