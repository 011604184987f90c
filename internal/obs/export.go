package obs

import "rnrsim/internal/telemetry"

// LifecycleJSON is the `lifecycle` section of the rnrsim.v1 envelope:
// run-total outcome attribution plus the per-iteration breakdown.
type LifecycleJSON struct {
	Issued          uint64 `json:"issued"`
	Timely          uint64 `json:"timely"`
	Late            uint64 `json:"late"`
	UnusedEvicted   uint64 `json:"unused_evicted"`
	UnusedAtEnd     uint64 `json:"unused_at_end"`
	Redundant       uint64 `json:"redundant"`
	LateStallShaved uint64 `json:"late_stall_shaved"`
	// OpenAtEnd is nonzero only when the summary was taken without
	// Finalize (aborted run); the audit invariant tolerates it.
	OpenAtEnd int `json:"open_at_end,omitempty"`
	// IterOverflow counts IterEnd markers beyond the tracking cap.
	IterOverflow uint64 `json:"iter_overflow,omitempty"`

	Iterations []IterOutcomesJSON `json:"iterations,omitempty"`
	Divergence *DivergenceJSON    `json:"divergence,omitempty"`
}

// IterOutcomesJSON is one iteration's outcome delta (counts attributed
// between the previous IterEnd marker and this one).
type IterOutcomesJSON struct {
	Iter          int    `json:"iter"`
	EndCycle      uint64 `json:"end_cycle"`
	Issued        uint64 `json:"issued"`
	Timely        uint64 `json:"timely"`
	Late          uint64 `json:"late"`
	UnusedEvicted uint64 `json:"unused_evicted"`
	Redundant     uint64 `json:"redundant"`
}

// DivergenceJSON summarises the RnR divergence probes: how far the
// replayed miss sequence drifted from observed misses, per window and
// aggregated. Score 0 is a perfect replay; 1 means nothing matched.
type DivergenceJSON struct {
	WindowsScored uint64            `json:"windows_scored"`
	MeanScore     float64           `json:"mean_score"`
	MaxScore      float64           `json:"max_score"`
	Windows       []WindowScoreJSON `json:"windows,omitempty"`
}

// WindowScoreJSON is one replay window's divergence measurement on one
// core's engine.
type WindowScoreJSON struct {
	Core         int     `json:"core"`
	Window       int     `json:"window"`
	Predicted    int     `json:"predicted"`
	Observed     int     `json:"observed"`
	EditDistance int     `json:"edit_distance"`
	Score        float64 `json:"score"`
}

// Summary is everything the flight recorder exports for one run,
// attached to sim.Result and rendered into the envelope's `lifecycle`
// and `histograms` sections.
type Summary struct {
	Lifecycle  LifecycleJSON
	Histograms map[string]telemetry.HistogramJSON
}

// Summarize builds the export view. Call after Finalize for a drained
// run; divergence (owned by the rnr package) is attached by the caller
// via AttachDivergence.
func (r *Recorder) Summarize() *Summary {
	total := r.Stats()
	lc := LifecycleJSON{
		Issued:          total.Issued,
		Timely:          total.Timely,
		Late:            total.Late,
		UnusedEvicted:   total.UnusedEvicted,
		UnusedAtEnd:     total.UnusedAtEnd,
		Redundant:       total.Redundant,
		LateStallShaved: total.LateStallShaved,
		OpenAtEnd:       r.OpenRecords(),
		IterOverflow:    r.iterOverflow,
	}
	var prev Stats
	for _, m := range r.iterMarks {
		if !m.seen {
			continue
		}
		d := m.cum
		lc.Iterations = append(lc.Iterations, IterOutcomesJSON{
			Iter:          m.iter,
			EndCycle:      m.cycle,
			Issued:        d.Issued - prev.Issued,
			Timely:        d.Timely - prev.Timely,
			Late:          d.Late - prev.Late,
			UnusedEvicted: d.UnusedEvicted - prev.UnusedEvicted,
			Redundant:     d.Redundant - prev.Redundant,
		})
		prev = d
	}
	return &Summary{
		Lifecycle: lc,
		Histograms: map[string]telemetry.HistogramJSON{
			"prefetch_to_use_cycles": r.hPrefetchToUse.JSON(),
			"fill_latency_cycles":    r.hFillLatency.JSON(),
			"mshr_at_issue":          r.hMSHRAtIssue.JSON(),
		},
	}
}

// AttachDivergence sets the summary's divergence section. windows are
// the retained per-window scores, already labelled with their core; the
// probes keep only a bounded number, so the aggregates come from the
// probes and cover every scored window: scored counts them, pastCapSum
// sums the scores of those not retained, and maxScore is the largest.
func (s *Summary) AttachDivergence(windows []WindowScoreJSON, scored uint64, pastCapSum, maxScore float64) {
	if scored == 0 {
		return
	}
	sum := 0.0
	for _, w := range windows {
		sum += w.Score
	}
	s.Lifecycle.Divergence = &DivergenceJSON{
		WindowsScored: scored,
		MeanScore:     (sum + pastCapSum) / float64(scored),
		MaxScore:      maxScore,
		Windows:       windows,
	}
}
