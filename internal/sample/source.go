package sample

// Source is a pull cursor over ping samples. Next returns the next
// sample and true, or the zero Sample and false once the stream is
// exhausted or fails; a non-nil error is terminal and every later call
// must keep returning it. The Next style (rather than a callback) lets
// a consumer own the loop — the single-pass analysis core and the
// incremental store build both drain a Source in constant memory.
type Source interface {
	Next() (Sample, bool, error)
}

// TraceSource is the traceroute counterpart of Source.
type TraceSource interface {
	Next() (TraceSample, bool, error)
}

// Drain pumps every sample of src into fn, stopping at the first error
// from either side.
func Drain(src Source, fn func(Sample) error) error {
	for {
		s, ok, err := src.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(s); err != nil {
			return err
		}
	}
}

// DrainTraces pumps every traceroute of src into fn, stopping at the
// first error from either side.
func DrainTraces(src TraceSource, fn func(TraceSample) error) error {
	for {
		t, ok, err := src.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(t); err != nil {
			return err
		}
	}
}
