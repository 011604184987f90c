package telemetry

import (
	"fmt"
	"io"
	"os"
)

// Config sizes a Recorder.
type Config struct {
	// SampleInterval is the number of simulated cycles between series
	// samples; 0 defaults to 10_000 (≈2.5 µs of simulated time at 4 GHz).
	SampleInterval uint64
}

// DefaultSampleInterval is the sampling period used when Config leaves
// SampleInterval zero.
const DefaultSampleInterval = 10_000

// Recorder bundles a registry, a cycle-sampled series collector and an
// event tracer for one simulation run. A nil *Recorder is fully inert:
// every method is a nil-checked no-op, which is the disabled fast path
// the simulator relies on.
type Recorder struct {
	reg      Registry
	sampler  *Sampler
	tracer   *Tracer
	interval uint64
}

// Counter returns the recorder's named counter (nil when disabled).
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.reg.Counter(name)
}

// Gauge returns the recorder's named gauge (nil when disabled).
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.reg.Gauge(name)
}

// Probe registers a pull-style gauge (no-op when disabled).
func (r *Recorder) Probe(name string, fn Probe) {
	if r == nil {
		return
	}
	r.reg.Probe(name, fn)
}

// New builds an enabled recorder.
func New(cfg Config) *Recorder {
	if cfg.SampleInterval == 0 {
		cfg.SampleInterval = DefaultSampleInterval
	}
	return &Recorder{
		sampler:  &Sampler{},
		tracer:   newTracer(traceCap),
		interval: cfg.SampleInterval,
	}
}

// Enabled reports whether the recorder collects anything.
func (r *Recorder) Enabled() bool { return r != nil }

// SampleInterval returns the configured sampling period (0 when nil, so
// callers can use it directly in a modulus guard).
func (r *Recorder) SampleInterval() uint64 {
	if r == nil {
		return 0
	}
	return r.interval
}

// Sample polls every registered probe/gauge/counter and appends one row
// stamped with cycle. The caller (sim.System.Tick) decides the cadence.
func (r *Recorder) Sample(cycle uint64) {
	if r == nil {
		return
	}
	r.sampler.sample(&r.reg, cycle)
}

// Span records a completed [start,end] duration on track.
func (r *Recorder) Span(track, name string, start, end uint64) {
	if r == nil {
		return
	}
	r.tracer.span(track, name, start, end)
}

// Instant records a point event on track.
func (r *Recorder) Instant(track, name string, cycle uint64) {
	if r == nil {
		return
	}
	r.tracer.instant(track, name, cycle)
}

// Sampler exposes the series collector (nil when disabled).
func (r *Recorder) Sampler() *Sampler {
	if r == nil {
		return nil
	}
	return r.sampler
}

// Tracer exposes the event tracer (nil when disabled).
func (r *Recorder) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// WriteMetricsJSONL streams the retained series rows as JSONL.
func (r *Recorder) WriteMetricsJSONL(w io.Writer) error {
	if r == nil {
		return nil
	}
	return r.sampler.WriteJSONL(w)
}

// WriteTraceJSON streams the Chrome trace-event JSON.
func (r *Recorder) WriteTraceJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	return r.tracer.WriteTrace(w)
}

// WriteMetricsFile writes the series to path (no-op when nil).
func (r *Recorder) WriteMetricsFile(path string) error {
	return r.writeFile(path, r.WriteMetricsJSONL)
}

// WriteTraceFile writes the trace to path (no-op when nil).
func (r *Recorder) WriteTraceFile(path string) error {
	return r.writeFile(path, r.WriteTraceJSON)
}

func (r *Recorder) writeFile(path string, emit func(io.Writer) error) error {
	if r == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if err := emit(f); err != nil {
		f.Close()
		return fmt.Errorf("telemetry: write %s: %w", path, err)
	}
	return f.Close()
}
