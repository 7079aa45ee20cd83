package lint

// Config pairs the analyzers to run with the package scope each one
// applies to.
type Config struct {
	Analyzers []*Analyzer
	Scopes    map[string]Scope
}

// DefaultConfig is the repo's determinism contract. Every exemption
// here is a policy decision with a reason; narrowing an exemption means
// fixing the package first.
func DefaultConfig() *Config {
	return &Config{
		Analyzers: []*Analyzer{
			NoRawTime, NoGlobalRand, FloatEq, UncheckedErr, CtxPropagate, StoreAppend,
			SpanEnd, GoroutineLeak, LockHeld, FrameExhaustive, MetricName,
		},
		Scopes: map[string]Scope{
			// Everything under internal/ is simulation or analysis code
			// and must be replayable from a seed, except:
			//   - internal/serve: HTTP layer; uptime metrics, cache ages
			//     and request latency histograms legitimately read real
			//     time.
			//   - internal/obs: the observability layer measures the wall
			//     clock by design (span durations, obs.Time stopwatches);
			//     it is the ONE place deterministic packages may route
			//     timing through, which is exactly why it cannot itself be
			//     clock-free.
			// cmd/ and examples/ are thin CLI shells over the library
			// and may time their own runs.
			NoRawTime.Name: {
				Include: []string{"internal"},
				Exclude: []string{"internal/serve", "internal/obs"},
			},
			// The global rand source is forbidden everywhere, CLIs
			// included: a stray global draw anywhere in the process
			// perturbs nothing locally but couples seeds across
			// components the moment two of them share it.
			NoGlobalRand.Name: {Include: []string{""}},
			// Float equality is checked where figure math lives.
			FloatEq.Name: {
				Include: []string{"internal/stats", "internal/analysis", "internal/store"},
			},
			// Write paths: dataset encoders/sinks, the sharded store,
			// and the campaign engine's sink delivery.
			UncheckedErr.Name: {
				Include: []string{"internal/dataset", "internal/store", "internal/measure"},
			},
			// dataset.Store's record slices have exactly one sanctioned
			// writer: internal/dataset itself (FromRecords, AddPing,
			// AddTrace, Merge, the sinks). Everywhere else a direct
			// append bypasses the streaming spine.
			StoreAppend.Name: {
				Include: []string{""},
				Exclude: []string{"internal/dataset"},
			},
			// The packages whose exported API spawns goroutines or
			// blocks: the campaign engine (Run returns the partial store
			// on cancellation), the HTTP service (graceful drain), the
			// admission layer in front of it, the distributed campaign
			// plane (coordinator accept loops, worker lease loops and
			// both transports block on peers that may never answer), and
			// the mmap-backed segment reader (it sits directly on the
			// serve path, so an exported method that spawned or blocked
			// would dodge request cancellation).
			CtxPropagate.Name: {
				Include: []string{"internal/measure", "internal/serve", "internal/admit", "internal/cluster", "internal/segment"},
			},
			// The flow-aware invariants (DESIGN.md §13) hold everywhere:
			// a leaked span, a fire-and-forget goroutine, a channel op
			// under a mutex, a non-exhaustive frame switch or an
			// unbounded metric label is a bug in a CLI shell just as in
			// the spine. Intentional exceptions are taken in place with
			// lint:ignore and a recorded reason, never by scope.
			SpanEnd.Name:         {Include: []string{""}},
			GoroutineLeak.Name:   {Include: []string{""}},
			LockHeld.Name:        {Include: []string{""}},
			FrameExhaustive.Name: {Include: []string{""}},
			MetricName.Name:      {Include: []string{""}},
		},
	}
}
