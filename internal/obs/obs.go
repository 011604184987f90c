// Package obs is the prefetch-lifecycle flight recorder: it attributes
// every locally-generated prefetch to exactly one outcome (timely hit,
// late, unused-evicted, unused-at-end, redundant), aggregates the
// latency structure into exponential histograms, and keys outcome
// counts to the workload's iteration markers. It composes with
// internal/telemetry (histograms are telemetry.Histogram instruments)
// rather than replacing it, and follows the same discipline: the
// disabled path is a nil pointer compare in the cache, and recording
// never feeds back into simulated behaviour, so architectural state
// hashes are identical with the recorder on or off.
//
// Wiring: the simulator builds one Recorder per run and attaches one
// CacheView per instrumented cache level (each view implements
// cache.LifecycleObserver structurally — obs does not import cache).
// IterEnd snapshots cumulative outcome totals at each iteration
// boundary; Finalize closes records still open when the run drains.
package obs

import (
	"fmt"

	"rnrsim/internal/mem"
	"rnrsim/internal/telemetry"
)

// Config enables a flight recorder. The zero value is a usable default
// (no mirror).
type Config struct {
	// Mirror, when non-nil, receives every histogram observation under
	// "obs."-prefixed names in addition to the recorder's own per-run
	// instruments. The serving layer passes its process-wide metrics
	// registry here so /metrics exposes Prometheus histograms
	// accumulated across jobs.
	Mirror *telemetry.Registry
}

// MaxTrackedIterations bounds per-iteration bookkeeping, both the flight
// recorder's outcome table and the simulator's iteration stamps and
// snapshots. A hostile or fuzzed trace can mark an iteration index of
// any size (MarkIterEnd carries it in Aux); without a cap each table
// would grow to that index, and an adversarial 2^40 index is an instant
// OOM. 2^16 iterations is far beyond any real workload (the paper's
// evaluation composes ~100) and keeps the simulator's worst-case
// bookkeeping near 9 MB.
const MaxTrackedIterations = 1 << 16

// Stats are the recorder's monotone outcome counters. Every field is a
// uint64 counter so the audit layer's reflection-based monotone watcher
// covers them all. The conservation law — checked by CheckInvariants —
// is Issued == Timely+Late+UnusedEvicted+UnusedAtEnd+Redundant+open,
// where open is the number of records not yet closed.
type Stats struct {
	Issued        uint64 // lifecycle records opened (accepted + redundant)
	Timely        uint64 // demand hit the prefetched line after fill
	Late          uint64 // demand merged while the prefetch was in flight
	UnusedEvicted uint64 // filled, then evicted or invalidated unreferenced
	UnusedAtEnd   uint64 // filled, still resident and unreferenced at drain
	Redundant     uint64 // filtered, raced or merged away without a fetch

	// LateStallShaved accumulates, over all late prefetches, the cycles
	// each was already in flight when its demand arrived — the stall
	// the demand was spared relative to no prefetch at all.
	LateStallShaved uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Issued += other.Issued
	s.Timely += other.Timely
	s.Late += other.Late
	s.UnusedEvicted += other.UnusedEvicted
	s.UnusedAtEnd += other.UnusedAtEnd
	s.Redundant += other.Redundant
	s.LateStallShaved += other.LateStallShaved
}

// Closed returns the number of records attributed to a final outcome.
func (s Stats) Closed() uint64 {
	return s.Timely + s.Late + s.UnusedEvicted + s.UnusedAtEnd + s.Redundant
}

// record tracks one in-flight or resident-unused prefetch.
type record struct {
	issueAt   uint64
	fillAt    uint64
	headStart uint64 // in-flight cycles at demand merge (late records)
	filled    bool
	late      bool // a demand merged in flight; closes at fill
}

// Recorder is one run's flight recorder: a set of per-cache views plus
// the shared histograms and the per-iteration outcome table.
type Recorder struct {
	views []*CacheView

	// Histograms (paper §V evaluates timeliness; these expose its
	// structure): prefetch-to-use distance in cycles (fill → demand
	// hit), fill latency in cycles (issue → fill), and MSHR occupancy
	// at issue.
	hPrefetchToUse *telemetry.Histogram
	hFillLatency   *telemetry.Histogram
	hMSHRAtIssue   *telemetry.Histogram
	mPrefetchToUse *telemetry.Histogram // mirrors (nil without Config.Mirror)
	mFillLatency   *telemetry.Histogram
	mMSHRAtIssue   *telemetry.Histogram

	// iterMarks[i] holds the cumulative outcome totals at the close of
	// iteration i; per-iteration deltas are derived at export time.
	iterMarks    []iterMark
	iterOverflow uint64 // IterEnd calls beyond the tracking cap
}

type iterMark struct {
	iter  int
	cycle uint64
	cum   Stats
	seen  bool
}

// NewRecorder builds an enabled flight recorder from cfg.
func NewRecorder(cfg Config) *Recorder {
	r := &Recorder{
		hPrefetchToUse: &telemetry.Histogram{},
		hFillLatency:   &telemetry.Histogram{},
		hMSHRAtIssue:   &telemetry.Histogram{},
	}
	if m := cfg.Mirror; m != nil {
		r.mPrefetchToUse = m.Histogram("obs.prefetch_to_use_cycles")
		r.mFillLatency = m.Histogram("obs.fill_latency_cycles")
		r.mMSHRAtIssue = m.Histogram("obs.mshr_at_issue")
	}
	return r
}

// View creates and registers the lifecycle observer for one cache
// level. name labels the level in invariant-violation messages
// (e.g. "l2.0").
func (r *Recorder) View(name string) *CacheView {
	v := &CacheView{rec: r, name: name, open: make(map[mem.Addr]record)}
	r.views = append(r.views, v)
	return v
}

// Stats returns the outcome totals summed over every view.
func (r *Recorder) Stats() Stats {
	var s Stats
	for _, v := range r.views {
		s.Add(v.stats)
	}
	return s
}

// OpenRecords returns the number of not-yet-closed records across all
// views (0 after Finalize).
func (r *Recorder) OpenRecords() int {
	n := 0
	for _, v := range r.views {
		n += len(v.open)
	}
	return n
}

// IterEnd snapshots the cumulative outcome totals at the close of
// iteration iter. Indices outside [0, MaxTrackedIterations) are counted
// in the overflow total instead of growing the table (fuzzed traces
// carry hostile indices).
func (r *Recorder) IterEnd(iter int, cycle uint64) {
	if iter < 0 || iter >= MaxTrackedIterations {
		r.iterOverflow++
		return
	}
	for len(r.iterMarks) <= iter {
		r.iterMarks = append(r.iterMarks, iterMark{})
	}
	r.iterMarks[iter] = iterMark{iter: iter, cycle: cycle, cum: r.Stats(), seen: true}
}

// Finalize closes every record still open once the run has drained:
// filled lines still resident and unreferenced become unused-at-end, as
// do records whose fill never completed (possible only on aborted runs
// — except late-marked ones, which close as late even if the run was
// cut before their fill). Idempotent.
func (r *Recorder) Finalize(cycle uint64) {
	for _, v := range r.views {
		for line, rec := range v.open {
			delete(v.open, line)
			if rec.late {
				v.stats.Late++
				v.stats.LateStallShaved += rec.headStart
			} else {
				v.stats.UnusedAtEnd++
			}
		}
	}
}

// CheckInvariants reports the flight recorder's conservation law in the
// audit layer's report-callback style: every opened record is closed
// with exactly one outcome (plus, before Finalize, still-open ones).
func (r *Recorder) CheckInvariants(report func(string)) {
	for _, v := range r.views {
		issued, closed, open := v.stats.Issued, v.stats.Closed(), uint64(len(v.open))
		if issued != closed+open {
			report(fmt.Sprintf(
				"obs[%s]: issued %d != closed %d + open %d (each prefetch must have exactly one outcome)",
				v.name, issued, closed, open))
		}
	}
}

// CacheView is the lifecycle observer for one cache level. Its method
// set matches cache.LifecycleObserver; the cache fires events and the
// view owns classification. Single-goroutine like the cache itself.
type CacheView struct {
	rec   *Recorder
	name  string
	open  map[mem.Addr]record
	stats Stats
}

// PrefetchIssued opens a lifecycle record. A still-open record for the
// same line should be impossible (the cache filters against residents
// and in-flight MSHRs); if one appears it is closed as redundant so the
// conservation law keeps holding.
func (v *CacheView) PrefetchIssued(line mem.Addr, cycle uint64, mshrOccupancy int) {
	if _, ok := v.open[line]; ok {
		v.stats.Redundant++
	}
	v.open[line] = record{issueAt: cycle}
	v.stats.Issued++
	v.rec.hMSHRAtIssue.Observe(uint64(mshrOccupancy))
	v.rec.mMSHRAtIssue.Observe(uint64(mshrOccupancy))
}

// PrefetchRedundant records a prefetch that was dropped or absorbed
// without fetching: issued and closed in the same instant.
func (v *CacheView) PrefetchRedundant(line mem.Addr, cycle uint64) {
	v.stats.Issued++
	v.stats.Redundant++
}

// PrefetchLateMerge marks the open record late. The outcome counters
// move only when the record closes (at fill, normally) so that the
// conservation law — issued == closed + open — holds at every instant,
// not just at rest; the auditor sweeps it mid-run.
func (v *CacheView) PrefetchLateMerge(line mem.Addr, cycle uint64, headStart uint64) {
	r, ok := v.open[line]
	if !ok || r.late {
		return // not a record of ours (e.g. a prefetch child from above)
	}
	r.late = true
	r.headStart = headStart
	v.open[line] = r
}

// PrefetchFilled observes the fill latency; late records close here,
// timely candidates stay open until demand hit or eviction.
func (v *CacheView) PrefetchFilled(line mem.Addr, cycle uint64, demanded bool) {
	r, ok := v.open[line]
	if !ok {
		return
	}
	v.rec.hFillLatency.Observe(cycle - r.issueAt)
	v.rec.mFillLatency.Observe(cycle - r.issueAt)
	if r.late {
		delete(v.open, line)
		v.stats.Late++
		v.stats.LateStallShaved += r.headStart
		return
	}
	r.filled = true
	r.fillAt = cycle
	v.open[line] = r
}

// PrefetchDemandHit closes a filled record as timely and observes the
// prefetch-to-use distance (fill → first demand).
func (v *CacheView) PrefetchDemandHit(line mem.Addr, cycle uint64) {
	r, ok := v.open[line]
	if !ok || !r.filled {
		return
	}
	delete(v.open, line)
	v.stats.Timely++
	v.rec.hPrefetchToUse.Observe(cycle - r.fillAt)
	v.rec.mPrefetchToUse.Observe(cycle - r.fillAt)
}

// PrefetchEvictedUnused closes a filled record that left the cache
// unreferenced (LRU eviction or context-switch invalidation).
func (v *CacheView) PrefetchEvictedUnused(line mem.Addr, cycle uint64) {
	r, ok := v.open[line]
	if !ok || !r.filled {
		return
	}
	delete(v.open, line)
	v.stats.UnusedEvicted++
}
