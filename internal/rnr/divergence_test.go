package rnr

import (
	"testing"

	"rnrsim/internal/mem"
	"rnrsim/internal/obs"
	"rnrsim/internal/trace"
)

// meanScore is the unexplained-miss fraction over every compared window:
// the scalar a re-record trigger would threshold.
func meanScore(p *DivergenceProbe) float64 {
	if p.Stats.ComparedMisses == 0 {
		return 0
	}
	return float64(p.Stats.UnmatchedMisses) / float64(p.Stats.ComparedMisses)
}

// replayWithMisses re-runs the replay phase feeding one struct read and
// one observed struct miss per entry of observedOffs, closing windows
// as the read counter advances and the trailing window at MarkEnd.
func replayWithMisses(e *Engine, c *replayCollector, base mem.Addr, observedOffs []uint64) {
	for i, off := range observedOffs {
		r := mem.NewRequest(mem.ReqLoad, base+mem.Addr(off*mem.LineSize), 1, 0, 0)
		e.PreAccess(r)
		structMiss(e, base+mem.Addr(off*mem.LineSize))
		e.OnCycle(uint64(200+i), c.issue)
	}
	e.HandleMarker(trace.Mark(trace.MarkEnd, 0, 0, 0), 500)
}

// TestDivergenceZeroOnFaithfulReplay: when the observed miss stream
// equals the recording, every window scores 0.
func TestDivergenceZeroOnFaithfulReplay(t *testing.T) {
	base := mem.Addr(0x10000)
	offs := []uint64{0, 1, 2, 3}
	e, c := recordAndReplay(t, base, 2, offs)
	p := &DivergenceProbe{}
	e.AttachDivergence(p)
	replayWithMisses(e, c, base, offs)

	if p.Stats.WindowsScored != 2 {
		t.Fatalf("scored %d windows, want 2 (scores %+v)", p.Stats.WindowsScored, p.scores)
	}
	for _, w := range p.scores {
		if w.Score != 0 || w.EditDistance != 0 {
			t.Errorf("window %d diverged on a faithful replay: %+v", w.Window, w)
		}
	}
	if meanScore(p) != 0 || p.LastScore() != 0 {
		t.Errorf("mean %v last %v, want 0", meanScore(p), p.LastScore())
	}
}

// TestDivergenceZeroWhenFullyCovered: a perfect prefetcher turns every
// predicted miss into a hit; no observed misses is convergence (score
// 0), not divergence — predicted-but-absent entries are free.
func TestDivergenceZeroWhenFullyCovered(t *testing.T) {
	base := mem.Addr(0x10000)
	e, c := recordAndReplay(t, base, 2, []uint64{0, 1, 2, 3})
	p := &DivergenceProbe{}
	e.AttachDivergence(p)
	// Struct reads advance the window; every access hits.
	for i := 0; i < 4; i++ {
		r := mem.NewRequest(mem.ReqLoad, base+mem.Addr(uint64(i)*mem.LineSize), 1, 0, 0)
		e.PreAccess(r)
		e.OnCycle(uint64(200+i), c.issue)
	}
	e.HandleMarker(trace.Mark(trace.MarkEnd, 0, 0, 0), 500)
	if p.Stats.WindowsScored != 2 {
		t.Fatalf("scored %d windows, want 2", p.Stats.WindowsScored)
	}
	for _, w := range p.scores {
		if w.Observed != 0 || w.Score != 0 {
			t.Errorf("covered replay scored %+v", w)
		}
	}
}

// TestDivergenceFullOnMutatedStructure: misses at lines the recording
// never saw score 1.0 — the re-record trigger.
func TestDivergenceFullOnMutatedStructure(t *testing.T) {
	base := mem.Addr(0x10000)
	e, c := recordAndReplay(t, base, 2, []uint64{0, 1, 2, 3})
	p := &DivergenceProbe{}
	e.AttachDivergence(p)
	replayWithMisses(e, c, base, []uint64{100, 101, 102, 103})

	if p.Stats.WindowsScored != 2 {
		t.Fatalf("scored %d windows, want 2 (scores %+v)", p.Stats.WindowsScored, p.scores)
	}
	for _, w := range p.scores {
		if w.Score != 1 {
			t.Errorf("mutated-structure window scored %v, want 1 (%+v)", w.Score, w)
		}
	}
	if meanScore(p) != 1 {
		t.Errorf("mean = %v, want 1", meanScore(p))
	}
	if p.Stats.UnmatchedMisses != 4 || p.Stats.ComparedMisses != 4 {
		t.Errorf("stats = %+v", p.Stats)
	}
}

// TestDivergencePartialOverlap pins the LCS scoring on a half-mutated
// window.
func TestDivergencePartialOverlap(t *testing.T) {
	base := mem.Addr(0x10000)
	e, c := recordAndReplay(t, base, 4, []uint64{0, 1, 2, 3})
	p := &DivergenceProbe{}
	e.AttachDivergence(p)
	// Window 0 predicted [0 1 2 3]; observe [0 9 2 9]: LCS {0,2} → ED 2.
	replayWithMisses(e, c, base, []uint64{0, 9, 2, 9})

	ws := p.scores
	if len(ws) != 1 {
		t.Fatalf("windows = %+v, want 1", ws)
	}
	if ws[0].EditDistance != 2 || ws[0].Score != 0.5 {
		t.Errorf("window = %+v, want ED 2 score 0.5", ws[0])
	}
}

func TestLCSLen(t *testing.T) {
	mk := func(offs ...uint64) []SeqEntry {
		out := make([]SeqEntry, len(offs))
		for i, o := range offs {
			out[i] = NewSeqEntry(0, o)
		}
		return out
	}
	cases := []struct {
		a, b []SeqEntry
		want int
	}{
		{nil, nil, 0},
		{mk(1, 2, 3), nil, 0},
		{mk(1, 2, 3), mk(1, 2, 3), 3},
		{mk(1, 2, 3), mk(3, 2, 1), 1},
		{mk(1, 3, 5, 7), mk(1, 2, 3, 4, 5), 3},
		{mk(9, 1, 9, 2), mk(1, 2), 2},
	}
	for _, c := range cases {
		if got := lcsLen(c.a, c.b); got != c.want {
			t.Errorf("lcsLen(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestDivergenceCapsBound hostile windows: the observe buffer and the
// predicted slice are both capped at divergenceMaxCompare, total misses
// still counted; past divergenceMaxWindows retained scores stop growing
// while the aggregates keep counting.
func TestDivergenceCapsBound(t *testing.T) {
	p := &DivergenceProbe{}
	const over = divergenceMaxCompare + 100
	pred := make([]SeqEntry, over)
	for i := range pred {
		pred[i] = NewSeqEntry(0, uint64(i))
	}
	for w := 0; w < 2; w++ {
		for i := 0; i < over; i++ {
			p.observe(NewSeqEntry(0, uint64(i)), false)
		}
		p.closeWindow(w, pred)
	}
	if p.Stats.ObservedMisses != 2*over {
		t.Errorf("observed = %d, want %d", p.Stats.ObservedMisses, 2*over)
	}
	if p.Stats.ComparedMisses != 2*divergenceMaxCompare {
		t.Errorf("compared = %d, want %d (capped per window)", p.Stats.ComparedMisses, 2*divergenceMaxCompare)
	}
	for _, ws := range p.scores {
		if ws.Predicted != divergenceMaxCompare || ws.Observed != divergenceMaxCompare || ws.EditDistance != 0 {
			t.Errorf("window %d = %+v, want %d predicted and observed, all matched", ws.Window, ws, divergenceMaxCompare)
		}
	}

	// One observed miss per further window, up to three past the cap.
	for w := 2; w < divergenceMaxWindows+3; w++ {
		p.observe(NewSeqEntry(0, 1), false)
		p.closeWindow(w, pred[:1])
	}
	if dropped := p.Stats.WindowsScored - uint64(len(p.scores)); len(p.scores) != divergenceMaxWindows || dropped != 3 {
		t.Errorf("retained %d dropped %d, want %d/3", len(p.scores), dropped, divergenceMaxWindows)
	}
	if p.Stats.WindowsScored != divergenceMaxWindows+3 {
		t.Errorf("windows scored = %d, want %d (aggregates keep counting past the cap)",
			p.Stats.WindowsScored, divergenceMaxWindows+3)
	}
}

// TestDivergenceExportPastCap: the export sums every core's probe and
// counts the windows a probe scored past its retention cap. Core 0
// scores one window 1. Core 1 scores 4,099 windows: the 4,096 retained
// score 0 and the 3 past the cap score 0.5. Core 2 has no probe. So
// windows_scored is 4,100, mean_score (1 + 1.5)/4,100 and max_score 1,
// where aggregates taken from the retained list alone would read 4,097,
// 1/4,097 and 1, and ones taken from the last probe alone 4,099,
// 1.5/4,099 and 0.5.
func TestDivergenceExportPastCap(t *testing.T) {
	hit, miss := NewSeqEntry(0, 0), NewSeqEntry(0, 1)
	pred := []SeqEntry{hit}
	p0, p1 := &DivergenceProbe{}, &DivergenceProbe{}
	p0.observe(miss, false) // not in the recording: score 1
	p0.closeWindow(0, pred)
	const total = divergenceMaxWindows + 3
	for w := 0; w < total; w++ {
		p1.observe(hit, false) // predicted: score 0 ...
		if w >= divergenceMaxWindows {
			p1.observe(miss, false) // ... or, with this miss, 0.5
		}
		p1.closeWindow(w, pred)
	}
	var s obs.Summary
	ExportDivergence(&s, []*DivergenceProbe{p0, p1, nil})

	d := s.Lifecycle.Divergence
	if d == nil || d.WindowsScored != total+1 {
		t.Fatalf("divergence = %+v, want %d windows scored", d, total+1)
	}
	if want := 2.5 / (total + 1); d.MeanScore != want {
		t.Errorf("mean = %v, want %v", d.MeanScore, want)
	}
	if d.MaxScore != 1 {
		t.Errorf("max = %v, want 1", d.MaxScore)
	}
	if len(d.Windows) != 1+divergenceMaxWindows {
		t.Fatalf("exported %d windows, want the %d retained", len(d.Windows), 1+divergenceMaxWindows)
	}
	if w := d.Windows[0]; w.Core != 0 || w.Score != 1 {
		t.Errorf("first window = %+v, want core 0 scoring 1", w)
	}
	if w := d.Windows[1]; w.Core != 1 || w.Window != 0 || w.Score != 0 {
		t.Errorf("second window = %+v, want core 1's window 0 scoring 0", w)
	}
}
