// Package telemetry is the simulator's observability layer: a
// probe/counter registry, a cycle-sampled time-series collector and a
// structured event tracer, all designed around one invariant: **a nil
// Recorder costs nothing**. Every method on *Recorder, *Registry,
// *Counter and *Gauge is nil-safe, so instrumented components keep a
// possibly-nil pointer and call unconditionally; the disabled fast path
// is a single pointer compare with zero allocations (enforced by
// testing.AllocsPerRun in the package tests).
//
// Three collection styles cover the simulator's needs:
//
//   - Counters and gauges: atomic, cheap enough for warm paths, registered
//     by name and snapshotted into every sample row.
//   - Probes: pull-style gauges (func(cycle) float64) polled only at
//     sample time, so hot loops stay untouched — occupancies, rates and
//     RnR replay-cursor geometry are read from component state when the
//     sampler fires, not maintained per event.
//   - Spans: begin/end trace-event pairs exported as Chrome trace-event
//     JSON, loadable in Perfetto or chrome://tracing.
//
// Series are exported as JSONL (one object per sample row), traces as a
// single JSON object with a traceEvents array.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is an atomic monotonic counter. The zero value is ready to use;
// a nil *Counter is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Load returns the current value (0 on nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float level, moved by Add. The zero value is
// ready; a nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Load returns the current level (0 on nil).
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	return bitsFloat(g.bits.Load())
}

// Add shifts the gauge by delta atomically (CAS loop), for gauges that
// track a level through +1/-1 pairs — e.g. the cluster coordinator's
// in-flight sweep dispatches — where a load-then-store would lose
// concurrent updates. No-op on nil.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(bitsFloat(old)+delta)) {
			return
		}
	}
}

// Probe is a pull-style gauge, polled once per sample with the current
// cycle so rate probes can compute deltas.
type Probe func(cycle uint64) float64

// Registry holds named counters, gauges and probes. All methods are
// nil-safe: registering into a nil registry is a no-op that returns nil
// instruments (which are themselves no-ops).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	probes   []namedProbe
}

type namedProbe struct {
	name string
	fn   Probe
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Default is the process-wide registry for instruments that have no
// natural owner (e.g. sim.accuracy_clamped). It is always non-nil.
var Default = NewRegistry()

// Counter returns (registering on first use) the named counter, or nil
// when the registry is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge, or nil when
// the registry is nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Probe registers a pull-style gauge under name. Registering the same
// name twice keeps both (the later shadows the earlier in sample rows).
// No-op on a nil registry.
func (r *Registry) Probe(name string, fn Probe) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.probes = append(r.probes, namedProbe{name, fn})
}

// Metric is one named instrument value in a Snapshot.
type Metric struct {
	Name  string
	Kind  string // "counter", "gauge" or "probe"
	Value float64
}

// Snapshot reads every registered instrument once: probes (polled with
// cycle) sorted by name, then gauges and counters sorted by name, so
// exposition and JSON exports are byte-stable across runs regardless of
// registration order. Same-named probes keep registration order among
// themselves (the later still shadows the earlier in sample rows).
// Probes are evaluated outside the registry lock, so a probe may
// itself touch the registry without deadlocking. Nil-safe; the
// Prometheus-text /metrics endpoint of the serving layer is built on
// it.
func (r *Registry) Snapshot(cycle uint64) []Metric {
	if r == nil {
		return nil
	}
	insts := r.instruments()
	out := make([]Metric, len(insts))
	for i, in := range insts {
		out[i] = Metric{Name: in.name, Kind: in.kind, Value: in.read(cycle)}
	}
	return out
}

// instrument is one registered instrument: a Snapshot entry and a
// sample-row column.
type instrument struct {
	name, kind string
	read       func(cycle uint64) float64
}

// instruments lists every registered instrument in the one column
// order Snapshot and columns share: probes sorted by name, then gauges
// and counters sorted by name (map iteration is not stable). The probe
// sort is stable so same-named probes keep their registration order,
// which preserves the later-shadows-earlier contract of Probe. The lock
// is held only while listing, so callers read probes outside it.
func (r *Registry) instruments() []instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]instrument, 0, len(r.probes)+len(r.gauges)+len(r.counters))
	probes := append([]namedProbe(nil), r.probes...)
	sort.SliceStable(probes, func(i, j int) bool { return probes[i].name < probes[j].name })
	for _, p := range probes {
		out = append(out, instrument{p.name, "probe", p.fn})
	}
	for _, n := range sortedKeys(r.gauges) {
		g := r.gauges[n]
		out = append(out, instrument{n, "gauge", func(uint64) float64 { return g.Load() }})
	}
	for _, n := range sortedKeys(r.counters) {
		c := r.counters[n]
		out = append(out, instrument{n, "counter", func(uint64) float64 { return float64(c.Load()) }})
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// columns returns the sample-row schema in instruments order.
func (r *Registry) columns() (names []string, read []func(cycle uint64) float64) {
	for _, in := range r.instruments() {
		names = append(names, in.name)
		read = append(read, in.read)
	}
	return names, read
}
