package obs

// Config enables and sizes a run's observability. It is a pure value type
// (no pointers, maps or slices) so it can live inside core.Config without
// breaking the config fingerprint the sweep memoization keys on; an
// observed and an unobserved run of the same machine fingerprint
// differently, which is correct — their Results differ (one carries a
// timeline and a trace).
//
// The zero value disables everything; a disabled run pays a single pointer
// comparison per simulated cycle and allocates nothing.
type Config struct {
	// SampleEvery is the cycle-window width of the time-series sampler:
	// every SampleEvery cycles one Sample is appended to the run's
	// Timeline. Zero disables sampling.
	SampleEvery uint64

	// TraceEvents enables the typed event trace (checkpoint create/commit,
	// restarts, miss returns, redo-drain episodes, violations).
	TraceEvents bool
}

// Defaults for the bounded in-memory buffers.
const (
	// DefaultSampleEvery is the paper-scale default sampling window: 4K
	// cycles resolves the SRL occupancy ramps and redo bursts of Figure 7
	// while keeping a 150K-uop run under ~100 samples.
	DefaultSampleEvery = 4096

	// DefaultTimelineCap bounds the in-memory sample ring: ~64M cycles of
	// history at the default window before the oldest samples are evicted
	// (and counted in Timeline.Dropped).
	DefaultTimelineCap = 16384

	// DefaultTraceCap bounds the event trace to ~24 MB of events; further
	// events are dropped and counted.
	DefaultTraceCap = 1 << 20
)

// Enabled reports whether any observability is requested.
func (c Config) Enabled() bool { return c.SampleEvery > 0 || c.TraceEvents }

// DefaultConfig returns full observability at default scale: 4K-cycle
// sampling windows plus the typed event trace.
func DefaultConfig() Config {
	return Config{SampleEvery: DefaultSampleEvery, TraceEvents: true}
}

// NewTimeline builds the run's timeline per the config, or nil when
// sampling is disabled.
func (c Config) NewTimeline() *Timeline {
	if c.SampleEvery == 0 {
		return nil
	}
	return NewTimeline(c.SampleEvery, DefaultTimelineCap)
}

// NewTraceWriter builds the run's event trace per the config, or nil when
// tracing is disabled.
func (c Config) NewTraceWriter() *TraceWriter {
	if !c.TraceEvents {
		return nil
	}
	return NewTraceWriter(DefaultTraceCap)
}
