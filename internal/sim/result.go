package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"rnrsim/internal/cache"
	"rnrsim/internal/coherence"
	"rnrsim/internal/cpu"
	"rnrsim/internal/dram"
	"rnrsim/internal/obs"
	"rnrsim/internal/prefetch"
	"rnrsim/internal/rnr"
	"rnrsim/internal/telemetry"
)

// Result is the statistical outcome of one simulation, with the derived
// metrics the paper's figures report.
type Result struct {
	ConfigName string
	Prefetcher PrefetcherKind
	App, Input string

	Cycles       uint64
	Instructions uint64
	Iterations   int
	IterEnd      []uint64 // global cycle at which iteration i's barrier opened

	// GroupIterEnd is IterEnd per barrier group, for multi-programmed
	// co-runs (nil when the machine has a single SPMD group; group 0's
	// slice then equals IterEnd).
	GroupIterEnd [][]uint64

	CoreStats []cpu.Stats
	IterL2    []cache.Stats // cumulative L2 stats at each iteration end
	L1, L2    cache.Stats
	LLC       cache.Stats
	// CoreL2 is each core's private-L2 stats individually, so a co-run
	// can compute per-core accuracy/coverage without the other jobs'
	// traffic diluting the denominators.
	CoreL2 []cache.Stats
	DRAM   dram.Stats
	RnR    rnr.Stats

	// Coherence is the MESI-lite directory's event counters (nil when
	// Config.Coherence was off); CrossCore the cooperative LLC
	// prefetcher's (nil when Config.CrossCore was off).
	Coherence *coherence.Stats
	CrossCore *prefetch.CrossCoreStats

	InputBytes uint64
	Check      float64

	// Obs is the prefetch-lifecycle flight recorder's summary (nil when
	// Config.Obs was nil): outcome attribution, latency histograms,
	// per-iteration outcome deltas and RnR divergence scores. Rendered
	// into the envelope's `lifecycle` and `histograms` sections.
	Obs *obs.Summary

	// CoreHashes folds each core's private domain (core, L1, L2, RnR
	// engine) into its own digest, letting differential tests compare
	// one core of a multi-programmed machine against a solo run.
	CoreHashes []uint64

	// StateHash is an FNV-1a digest of the complete architectural state
	// of the machine after the run drains: core ROB/LSQ registers, cache
	// tag arrays with LRU and dirty state, queues and MSHRs, the DRAM
	// controller's banks, and the RnR engines' registers, metadata
	// tables and statistics. Two runs of the same (config, app, input)
	// must produce the same hash regardless of how they were driven —
	// serial, through the parallel bench engine, or served by rnrd — and
	// regardless of whether auditing or telemetry was attached. The
	// differential tests in audit_system_test.go pin that equivalence.
	StateHash uint64
}

// IPC returns aggregate retired instructions per wall cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// L2MPKI returns private-L2 demand misses per thousand instructions
// (Fig. 7), aggregated over cores.
func (r *Result) L2MPKI() float64 { return r.L2.MPKI(r.Instructions) }

// TotalPrefetches counts prefetches that fetched data from below.
func (r *Result) TotalPrefetches() uint64 { return r.L2.PrefetchFillsDone }

// CounterAccuracyClamped and CounterCoverageClamped name the
// telemetry.Default counters that record how often a derived metric
// exceeded 1.0 and was clamped. A clamp means the useful-prefetch
// numerator double-counts relative to its denominator (e.g. a line
// prefetched in a warm-up iteration serving a steady-state demand);
// occasional clamps are accounting drift, a growing count is a bug.
const (
	CounterAccuracyClamped = "sim.accuracy_clamped"
	CounterCoverageClamped = "sim.coverage_clamped"
)

var (
	accuracyClamped = telemetry.Default.Counter(CounterAccuracyClamped)
	coverageClamped = telemetry.Default.Counter(CounterCoverageClamped)
)

// Accuracy is useful / total issued prefetches (§VII-A.3), over the
// steady-state iterations. Values above 1 (numerator/denominator drift
// across the steady-state window) are clamped, and every clamp is
// counted in the telemetry.Default counter CounterAccuracyClamped so the
// overflow is visible instead of silently hidden.
func (r *Result) Accuracy() float64 {
	s := r.steadyL2()
	t := s.PrefetchFillsDone
	if t == 0 {
		return 0
	}
	acc := float64(s.PrefetchUseful+s.PrefetchLate) / float64(t)
	if acc > 1 {
		accuracyClamped.Inc()
		acc = 1
	}
	return acc
}

// Coverage is useful prefetches over the *baseline's* demand misses
// (§VII-A.2: Coverage = Useful Prefetches / Total Baseline Misses),
// measured over the steady-state (replay) iterations so the warm-up and
// record iterations do not dilute either term.
func (r *Result) Coverage(baseline *Result) float64 {
	if baseline == nil {
		return 0
	}
	own := r.steadyL2()
	base := baseline.steadyL2()
	if base.DemandMisses == 0 {
		return 0
	}
	cov := float64(own.PrefetchUseful+own.PrefetchLate) / float64(base.DemandMisses)
	if cov > 1 {
		coverageClamped.Inc()
		cov = 1
	}
	return cov
}

// steadyL2 returns the L2 stats accumulated during the steady-state
// iterations (2..end), i.e. total minus the first two iterations'
// cumulative snapshot. Falls back to whole-run stats when iteration
// snapshots are missing.
func (r *Result) steadyL2() cache.Stats {
	if len(r.IterL2) < 2 {
		return r.L2
	}
	warm := r.IterL2[1]
	s := r.L2
	s.DemandAccesses -= warm.DemandAccesses
	s.DemandHits -= warm.DemandHits
	s.DemandMisses -= warm.DemandMisses
	s.DemandMerges -= warm.DemandMerges
	s.PrefetchIssued -= warm.PrefetchIssued
	s.PrefetchDropped -= warm.PrefetchDropped
	s.PrefetchFills -= warm.PrefetchFills
	s.PrefetchFillsDone -= warm.PrefetchFillsDone
	s.PrefetchUseful -= warm.PrefetchUseful
	s.PrefetchLate -= warm.PrefetchLate
	s.PrefetchEvicted -= warm.PrefetchEvicted
	return s
}

// IterCycles returns the duration of iteration i (barrier to barrier).
func (r *Result) IterCycles(i int) uint64 {
	if i < 0 || i >= len(r.IterEnd) || r.IterEnd[i] == 0 {
		return 0
	}
	if i == 0 {
		return r.IterEnd[0]
	}
	if r.IterEnd[i-1] == 0 || r.IterEnd[i] < r.IterEnd[i-1] {
		return 0
	}
	return r.IterEnd[i] - r.IterEnd[i-1]
}

// SteadyIterCycles averages the steady-state iterations (2..end): for RnR
// these are replay iterations, for other prefetchers trained iterations.
func (r *Result) SteadyIterCycles() float64 {
	var sum, n float64
	for i := 2; i < len(r.IterEnd); i++ {
		if c := r.IterCycles(i); c > 0 {
			sum += float64(c)
			n++
		}
	}
	if n == 0 {
		return float64(r.Cycles) / float64(max(1, r.Iterations))
	}
	return sum / n
}

// ComposedCycles extrapolates the runtime of `iters` kernel iterations
// from the measured per-iteration times: the first target iteration
// (recording, for RnR) plus iters-1 steady-state iterations. This is how
// the paper amortises the record iteration over ~100 replays (§VII-A.1).
func (r *Result) ComposedCycles(iters int) float64 {
	first := float64(r.IterCycles(1))
	if first == 0 {
		first = r.SteadyIterCycles()
	}
	return first + float64(iters-1)*r.SteadyIterCycles()
}

// ComposedSpeedup is the Fig. 6 headline metric: speedup over the
// baseline for a full iters-iteration run.
func (r *Result) ComposedSpeedup(baseline *Result, iters int) float64 {
	own := r.ComposedCycles(iters)
	if own == 0 {
		return 0
	}
	return baseline.ComposedCycles(iters) / own
}

// RecordOverheadPct is the §VII-A.6 metric: the IPC loss of the record
// iteration versus the same iteration in the baseline run, in percent.
func (r *Result) RecordOverheadPct(baseline *Result) float64 {
	own := float64(r.IterCycles(1))
	base := float64(baseline.IterCycles(1))
	if base == 0 || own == 0 {
		return 0
	}
	return (own - base) / base * 100
}

// AdditionalTrafficPct is the Fig. 12 metric: extra off-chip traffic
// (including metadata) over the baseline, in percent.
func (r *Result) AdditionalTrafficPct(baseline *Result) float64 {
	base := float64(baseline.DRAM.TotalTraffic())
	if base == 0 {
		return 0
	}
	return (float64(r.DRAM.TotalTraffic()) - base) / base * 100
}

// StorageOverheadPct is the Fig. 13 metric: RnR metadata bytes as a
// percentage of the input size.
func (r *Result) StorageOverheadPct() float64 {
	if r.InputBytes == 0 {
		return 0
	}
	return float64(r.RnR.MetadataBytes()) / float64(r.InputBytes) * 100
}

// Timeliness is the Fig. 11 breakdown. Fractions are of total prefetches.
type Timeliness struct {
	OnTime, Early, Late, OutOfWindow float64
}

// TimelinessBreakdown classifies this run's prefetches: on-time (demand
// hit on a prefetched line), late (demand merged with the in-flight
// prefetch), early (evicted before use, demanded later) and out-of-window
// (never demanded in its iteration).
func (r *Result) TimelinessBreakdown() Timeliness {
	total := float64(r.TotalPrefetches())
	if total == 0 {
		return Timeliness{}
	}
	t := Timeliness{
		OnTime: float64(r.L2.PrefetchUseful) / total,
		Late:   float64(r.L2.PrefetchLate) / total,
	}
	if r.RnR.Prefetches > 0 {
		t.Early = float64(r.RnR.EarlyPrefetches) / total
		t.OutOfWindow = float64(r.RnR.OutOfWindow) / total
	} else {
		// For conventional prefetchers everything evicted-unused is
		// "early or useless"; report it in the early bucket.
		t.Early = float64(r.L2.PrefetchEvicted) / total
	}
	// Clamp tiny accounting drift.
	for _, p := range []*float64{&t.OnTime, &t.Early, &t.Late, &t.OutOfWindow} {
		if *p > 1 {
			*p = 1
		}
	}
	return t
}

// ExportSchemaVersion identifies the shape of every JSON artefact this
// codebase emits (per-run exports, bench suite exports, rnrd server
// responses). Bump it when a field changes meaning or is removed;
// adding fields is backwards-compatible within a version. Cached and
// served artefacts carry it (with a generation timestamp) so they are
// self-describing long after the process that wrote them is gone.
const ExportSchemaVersion = "rnrsim.v1"

// exportNow is stubbed by the envelope golden test.
var exportNow = time.Now

// Stamp returns the export envelope pair: the schema version and the
// current generation timestamp (RFC 3339, UTC). Every JSON artefact
// writer uses it so the fields stay consistent across packages.
func Stamp() (schemaVersion, generatedAt string) {
	return ExportSchemaVersion, exportNow().UTC().Format(time.RFC3339)
}

// ResultJSON is the machine-readable export of a Result: the raw
// counters plus the derived per-run metrics, so bench trajectories
// (BENCH_*.json) can be produced without parsing text tables. Metrics
// that need a baseline (speedup, coverage) are not included; compute
// them from two exports.
type ResultJSON struct {
	SchemaVersion string `json:"schema_version"`
	GeneratedAt   string `json:"generated_at"`

	Config     string `json:"config"`
	Prefetcher string `json:"prefetcher"`
	App        string `json:"app"`
	Input      string `json:"input"`

	Cycles       uint64     `json:"cycles"`
	Instructions uint64     `json:"instructions"`
	Iterations   int        `json:"iterations"`
	IterEnd      []uint64   `json:"iter_end,omitempty"`
	GroupIterEnd [][]uint64 `json:"group_iter_end,omitempty"`

	IPC        float64    `json:"ipc"`
	L2MPKI     float64    `json:"l2_mpki"`
	Accuracy   float64    `json:"accuracy"`
	Timeliness Timeliness `json:"timeliness"`

	CoreStats []cpu.Stats   `json:"core_stats,omitempty"`
	L1        cache.Stats   `json:"l1"`
	L2        cache.Stats   `json:"l2"`
	LLC       cache.Stats   `json:"llc"`
	CoreL2    []cache.Stats `json:"core_l2,omitempty"`
	DRAM      dram.Stats    `json:"dram"`
	RnR       rnr.Stats     `json:"rnr"`

	// Coherence and CrossCore are the multicore sections, present only
	// when the corresponding subsystem was configured.
	Coherence *coherence.Stats         `json:"coherence,omitempty"`
	CrossCore *prefetch.CrossCoreStats `json:"crosscore,omitempty"`

	InputBytes uint64  `json:"input_bytes"`
	Check      float64 `json:"check"`

	// Lifecycle and Histograms are the flight recorder's sections,
	// present only when the run was made with Config.Obs attached.
	Lifecycle  *obs.LifecycleJSON                 `json:"lifecycle,omitempty"`
	Histograms map[string]telemetry.HistogramJSON `json:"histograms,omitempty"`

	// StateHash is Result.StateHash as a 16-digit hex string: JSON
	// numbers lose precision past 2^53, and the hash needs all 64 bits
	// to be comparable across exports. CoreStateHashes are the per-core
	// sub-digests (same encoding, core order).
	StateHash       string   `json:"state_hash"`
	CoreStateHashes []string `json:"core_state_hashes,omitempty"`
}

// Export builds the JSON view of the result, stamped with the export
// envelope (schema_version + generated_at).
func (r *Result) Export() ResultJSON {
	schema, generated := Stamp()
	out := ResultJSON{
		SchemaVersion: schema,
		GeneratedAt:   generated,
		Config:        r.ConfigName,
		Prefetcher:    string(r.Prefetcher),
		App:           r.App,
		Input:         r.Input,
		Cycles:        r.Cycles,
		Instructions:  r.Instructions,
		Iterations:    r.Iterations,
		IterEnd:       r.IterEnd,
		GroupIterEnd:  r.GroupIterEnd,
		IPC:           r.IPC(),
		L2MPKI:        r.L2MPKI(),
		Accuracy:      r.Accuracy(),
		Timeliness:    r.TimelinessBreakdown(),
		CoreStats:     r.CoreStats,
		L1:            r.L1,
		L2:            r.L2,
		LLC:           r.LLC,
		CoreL2:        r.CoreL2,
		DRAM:          r.DRAM,
		RnR:           r.RnR,
		Coherence:     r.Coherence,
		CrossCore:     r.CrossCore,
		InputBytes:    r.InputBytes,
		Check:         r.Check,
		StateHash:     fmt.Sprintf("%016x", r.StateHash),
	}
	for _, h := range r.CoreHashes {
		out.CoreStateHashes = append(out.CoreStateHashes, fmt.Sprintf("%016x", h))
	}
	if r.Obs != nil {
		lc := r.Obs.Lifecycle
		out.Lifecycle = &lc
		out.Histograms = r.Obs.Histograms
	}
	return out
}

// WriteJSON writes the result as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Export())
}

// String summarises the run.
func (r *Result) String() string {
	return fmt.Sprintf("%s %s/%s: %d cycles, IPC %.3f, L2 MPKI %.1f, acc %.2f",
		r.Prefetcher, r.App, r.Input, r.Cycles, r.IPC(), r.L2MPKI(), r.Accuracy())
}
