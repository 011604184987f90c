package sim

import (
	"math"
	"testing"

	"rnrsim/internal/cache"
)

// finite fails the test if v is NaN or infinite.
func finite(t *testing.T, name string, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("%s = %v, want a finite value", name, v)
	}
}

// allMetricsFinite sweeps every derived ratio metric on r against base.
func allMetricsFinite(t *testing.T, r, base *Result) {
	t.Helper()
	finite(t, "IPC", r.IPC())
	finite(t, "L2MPKI", r.L2MPKI())
	finite(t, "Accuracy", r.Accuracy())
	finite(t, "Coverage", r.Coverage(base))
	finite(t, "SteadyIterCycles", r.SteadyIterCycles())
	finite(t, "ComposedCycles", r.ComposedCycles(100))
	finite(t, "ComposedSpeedup", r.ComposedSpeedup(base, 100))
	finite(t, "RecordOverheadPct", r.RecordOverheadPct(base))
	finite(t, "AdditionalTrafficPct", r.AdditionalTrafficPct(base))
	finite(t, "StorageOverheadPct", r.StorageOverheadPct())
	tl := r.TimelinessBreakdown()
	finite(t, "Timeliness.OnTime", tl.OnTime)
	finite(t, "Timeliness.Early", tl.Early)
	finite(t, "Timeliness.Late", tl.Late)
	finite(t, "Timeliness.OutOfWindow", tl.OutOfWindow)
}

// TestMetricsZeroCycleResult: a result that never ran (zero cycles,
// zero instructions, no misses) must yield zeros, not NaN from 0/0.
func TestMetricsZeroCycleResult(t *testing.T) {
	empty := &Result{}
	allMetricsFinite(t, empty, empty)
	if v := empty.IPC(); v != 0 {
		t.Errorf("IPC of empty result = %v, want 0", v)
	}
	if v := empty.ComposedSpeedup(empty, 100); v != 0 {
		t.Errorf("ComposedSpeedup of empty result = %v, want 0", v)
	}
}

// TestMetricsZeroMissBaseline: coverage against a baseline that never
// missed (infinite-cache regime) must be 0, not +Inf.
func TestMetricsZeroMissBaseline(t *testing.T) {
	r := &Result{
		Cycles: 1000,
		L2:     cache.Stats{PrefetchUseful: 40, PrefetchFillsDone: 50},
	}
	base := &Result{Cycles: 2000} // zero DemandMisses
	finite(t, "Coverage", r.Coverage(base))
	if v := r.Coverage(base); v != 0 {
		t.Errorf("Coverage vs zero-miss baseline = %v, want 0", v)
	}
	if v := r.Coverage(nil); v != 0 {
		t.Errorf("Coverage vs nil baseline = %v, want 0", v)
	}
}

// TestMetricsIterEndHoles: an iteration table with holes (a barrier
// index that never opened leaves a zero stamp) must not produce
// negative or overflowed durations.
func TestMetricsIterEndHoles(t *testing.T) {
	r := &Result{
		Cycles:       10_000,
		Instructions: 5_000,
		Iterations:   5,
		// Iteration 2 never opened; iteration 3 stamps *earlier* than 1
		// (a corrupt table, as a hostile trace can produce).
		IterEnd: []uint64{100, 400, 0, 300, 9000},
	}
	if v := r.IterCycles(2); v != 0 {
		t.Errorf("IterCycles over a hole = %d, want 0", v)
	}
	if v := r.IterCycles(3); v != 0 {
		t.Errorf("IterCycles from a hole = %d, want 0", v)
	}
	if v := r.IterCycles(4); v != 0 && v != 8700 {
		t.Errorf("IterCycles(4) = %d", v)
	}
	finite(t, "SteadyIterCycles", r.SteadyIterCycles())
	if v := r.SteadyIterCycles(); v < 0 {
		t.Errorf("SteadyIterCycles = %v, want >= 0", v)
	}
	allMetricsFinite(t, r, r)

	// Out-of-range indices are defined too.
	if r.IterCycles(-1) != 0 || r.IterCycles(99) != 0 {
		t.Error("IterCycles out of range != 0")
	}
}

// TestMetricsShorterBaseline: composing/covering against a baseline
// with fewer recorded iterations (shorter IterEnd/IterL2) must stay
// finite — the steady-state window falls back to whole-run stats.
func TestMetricsShorterBaseline(t *testing.T) {
	r := &Result{
		Cycles:       20_000,
		Instructions: 10_000,
		Iterations:   4,
		IterEnd:      []uint64{100, 300, 600, 1000},
		IterL2: []cache.Stats{
			{DemandMisses: 10, DemandAccesses: 40},
			{DemandMisses: 25, DemandAccesses: 90},
			{DemandMisses: 30, DemandAccesses: 140},
			{DemandMisses: 32, DemandAccesses: 190},
		},
		L2: cache.Stats{DemandMisses: 32, DemandAccesses: 190, DemandHits: 158,
			PrefetchUseful: 8, PrefetchFillsDone: 10},
	}
	base := &Result{
		Cycles:       40_000,
		Instructions: 10_000,
		Iterations:   1,
		IterEnd:      []uint64{900}, // only one iteration recorded
		L2:           cache.Stats{DemandMisses: 64, DemandAccesses: 200},
	}
	allMetricsFinite(t, r, base)
	if v := r.Coverage(base); v < 0 || v > 1 {
		t.Errorf("Coverage vs shorter baseline = %v, want within [0,1]", v)
	}
	finite(t, "base.SteadyIterCycles", base.SteadyIterCycles())
}

// TestMetricsAccuracyZeroPrefetches: zero issued prefetches is 0/0
// territory for accuracy and timeliness; both must return zeros.
func TestMetricsAccuracyZeroPrefetches(t *testing.T) {
	r := &Result{Cycles: 1000, Instructions: 500,
		L2: cache.Stats{DemandMisses: 100, DemandAccesses: 400}}
	if v := r.Accuracy(); v != 0 {
		t.Errorf("Accuracy with zero prefetches = %v, want 0", v)
	}
	if tl := r.TimelinessBreakdown(); tl != (Timeliness{}) {
		t.Errorf("TimelinessBreakdown with zero prefetches = %+v, want zeros", tl)
	}
}
