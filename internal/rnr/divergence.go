package rnr

import "rnrsim/internal/obs"

// DivergenceProbe measures how far the program's observed struct-miss
// stream has drifted from the recorded sequence the replay cursor is
// playing back — the staleness signal a re-record-on-divergence policy
// (ROADMAP item 4, AMC-style) consumes. Purely observational: it never
// feeds back into the engine, is excluded from architectural state
// hashing, and costs nothing when not attached (nil pointer compare).
//
// Scoring model. For each replay window the probe collects the struct
// misses actually observed (encoded as SeqEntry, same alphabet as the
// recorded sequence). A miss the engine itself covered — the line was
// prefetched from the script this iteration but lost the timing race
// (evicted before its demand) — is explained by the recording *by
// construction* and matches without comparison; in practice these are
// the vast majority of replay-time misses. The uncovered rest are
// compared against the window's predicted entries with a
// longest-common-subsequence match. Entries predicted but *not*
// observed are free: a recorded miss that doesn't reappear means the
// replayed prefetch covered it, which is success, not drift. What
// counts is observed misses the recording cannot explain:
//
//	editDistance = |uncovered| - LCS(uncovered, predicted) (insertions)
//	score        = editDistance / |observed|               (0 when no misses)
//
// Score 0 therefore means "every miss that happened was in the script"
// (or none happened at all); score 1 means the miss stream is unrelated
// to the recording — the data structure has been mutated and a
// re-record would pay off.
type DivergenceProbe struct {
	observed  []SeqEntry
	covered   int // misses this window explained by the engine's own prefetch
	scores    []WindowScore
	lastScore float64
	// The windows scored past the retention cap, Stats.WindowsScored -
	// len(scores) of them, are kept only as their score sum; maxScore is
	// the largest score of any scored window (see ExportDivergence).
	pastCapSum float64
	maxScore   float64

	Stats DivergenceStats
}

// DivergenceStats are the probe's monotone counters, shaped for the
// audit layer's reflection-based watcher (exported uint64 fields).
type DivergenceStats struct {
	WindowsScored   uint64
	ObservedMisses  uint64 // every struct miss seen during replay
	ComparedMisses  uint64 // observed misses that entered a comparison
	UnmatchedMisses uint64 // compared misses the recording cannot explain
}

// WindowScore is one window's divergence measurement.
type WindowScore struct {
	Window       int
	Predicted    int // predicted entries compared (after capping)
	Observed     int // observed misses, covered included (after capping)
	EditDistance int // observed misses not explained by the recording
	Score        float64
}

const (
	// divergenceMaxCompare caps both sequences per window (the LCS
	// table is quadratic). Overflowing entries are dropped from
	// comparison but counted in Stats.ObservedMisses.
	divergenceMaxCompare = 512
	// divergenceMaxWindows bounds retained per-window scores; further
	// windows are still scored into the aggregate stats.
	divergenceMaxWindows = 4096
)

// observe collects one replay-time struct miss for the current window.
// covered misses (the engine prefetched this exact line from the
// script) match by construction and skip the sequence comparison.
func (p *DivergenceProbe) observe(entry SeqEntry, covered bool) {
	p.Stats.ObservedMisses++
	if covered {
		p.covered++
		return
	}
	if len(p.observed) < divergenceMaxCompare {
		p.observed = append(p.observed, entry)
	}
}

// closeWindow scores the collected misses against the window's
// predicted entries and resets the collection buffer.
func (p *DivergenceProbe) closeWindow(window int, predicted []SeqEntry) {
	obs, covered := p.observed, p.covered
	p.observed = p.observed[:0]
	p.covered = 0
	if len(predicted) > divergenceMaxCompare {
		predicted = predicted[:divergenceMaxCompare]
	}
	total := len(obs) + covered
	if total == 0 && len(predicted) == 0 {
		return
	}
	matched := lcsLen(obs, predicted)
	ed := len(obs) - matched
	score := 0.0
	if total > 0 {
		score = float64(ed) / float64(total)
	}
	p.Stats.WindowsScored++
	p.Stats.ComparedMisses += uint64(total)
	p.Stats.UnmatchedMisses += uint64(ed)
	p.lastScore = score
	p.maxScore = max(p.maxScore, score)

	if len(p.scores) >= divergenceMaxWindows {
		p.pastCapSum += score
		return
	}
	p.scores = append(p.scores, WindowScore{
		Window:       window,
		Predicted:    len(predicted),
		Observed:     total,
		EditDistance: ed,
		Score:        score,
	})
}

// lcsLen is the longest-common-subsequence length with a two-row DP;
// inputs are pre-capped so the table stays bounded.
func lcsLen(a, b []SeqEntry) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// ExportDivergence sets sum's divergence section from probes, indexed
// by core (nil where a core has none). The windows are every probe's
// retained scores, in core order and within a core in close order
// (multiple replay iterations revisit the same window indices). The
// aggregates cover every scored window, however long the replay ran:
// the windows past a probe's retention cap count through its
// Stats.WindowsScored, pastCapSum and maxScore.
func ExportDivergence(sum *obs.Summary, probes []*DivergenceProbe) {
	var (
		windows              []obs.WindowScoreJSON
		scored               uint64
		pastCapSum, maxScore float64
	)
	for c, p := range probes {
		if p == nil {
			continue
		}
		for _, w := range p.scores {
			windows = append(windows, obs.WindowScoreJSON{
				Core:         c,
				Window:       w.Window,
				Predicted:    w.Predicted,
				Observed:     w.Observed,
				EditDistance: w.EditDistance,
				Score:        w.Score,
			})
		}
		scored += p.Stats.WindowsScored
		pastCapSum += p.pastCapSum
		maxScore = max(maxScore, p.maxScore)
	}
	sum.AttachDivergence(windows, scored, pastCapSum, maxScore)
}

// LastScore returns the most recently closed window's score (telemetry
// probe feed).
func (p *DivergenceProbe) LastScore() float64 { return p.lastScore }

// AttachDivergence wires a probe into the engine's replay path. Attach
// before the run starts; a nil engine probe is the disabled fast path.
func (e *Engine) AttachDivergence(p *DivergenceProbe) { e.diverge = p }

// Divergence returns the attached probe (nil when disabled).
func (e *Engine) Divergence() *DivergenceProbe { return e.diverge }

// windowSlice returns the recorded entries predicted for window w,
// widened by half a window on each side. The margin absorbs pipeline
// skew: the cursor advances when the core *issues* a struct read, but
// the corresponding miss is only observed when the access reaches the
// L2 a dozen-plus cycles later, by which time the cursor may have
// crossed a window boundary. Without the margin, boundary misses score
// against the wrong window and a faithful replay reads as half
// diverged; with it, only misses genuinely absent from the recording's
// neighbourhood count.
func (e *Engine) windowSlice(w int) []SeqEntry {
	if e.Arch.WindowSize == 0 {
		return nil
	}
	win := int(e.Arch.WindowSize)
	lo := w * win
	if lo < 0 || lo >= len(e.seq) {
		return nil
	}
	hi := lo + win
	if margin := win / 2; margin > 0 {
		lo -= margin
		if lo < 0 {
			lo = 0
		}
		hi += margin
	}
	if hi > len(e.seq) {
		hi = len(e.seq)
	}
	return e.seq[lo:hi]
}

// closeDivergence scores the trailing (usually partial) window when a
// replay phase ends. Called from the marker path; pauses deliberately
// do not close the window — replay resumes mid-window after a context
// switch and the segments belong together.
func (e *Engine) closeDivergence() {
	if e.diverge == nil || !e.replaying() {
		return
	}
	e.diverge.closeWindow(e.curWindow, e.windowSlice(e.curWindow))
}
