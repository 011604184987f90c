package rnr

import (
	"testing"
	"testing/quick"

	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
	"rnrsim/internal/trace"
)

// setup builds an engine with one enabled boundary over [base, base+size)
// and allocated metadata tables, in Record state.
func setup(t *testing.T, base mem.Addr, size uint64, window uint64) *Engine {
	t.Helper()
	e := NewEngine(0, nil)
	e.DefaultWindow = window
	e.HandleMarker(trace.Mark(trace.MarkInit, 0, 0, 0), 0)
	e.HandleMarker(trace.Mark(trace.MarkSeqTable, 0x7000_0000, 1<<20, 0), 0)
	e.HandleMarker(trace.Mark(trace.MarkDivTable, 0x7100_0000, 1<<16, 0), 0)
	e.HandleMarker(trace.Mark(trace.MarkAddrBaseSet, base, size, 0), 0)
	e.HandleMarker(trace.Mark(trace.MarkAddrBaseEnable, 0, 0, 0), 0)
	e.HandleMarker(trace.Mark(trace.MarkRecordStart, 0, 0, 0), 0)
	return e
}

func structMiss(e *Engine, line mem.Addr) {
	e.OnAccess(cache.AccessInfo{Line: line, Type: mem.ReqLoad, StructFlag: true}, nil)
}

func TestBoundaryCheckSetsFlagAndCounts(t *testing.T) {
	e := setup(t, 0x10000, 4096, 4)
	in := mem.NewRequest(mem.ReqLoad, 0x10100, 1, 0, 0)
	out := mem.NewRequest(mem.ReqLoad, 0x50000, 1, 0, 0)
	st := mem.NewRequest(mem.ReqStore, 0x10100, 1, 0, 0)
	e.PreAccess(in)
	e.PreAccess(out)
	e.PreAccess(st)
	if !in.StructFlag {
		t.Error("in-range load not flagged")
	}
	if out.StructFlag {
		t.Error("out-of-range load flagged")
	}
	if st.StructFlag {
		t.Error("store flagged (only reads are counted)")
	}
	if e.CurStructRead() != 1 || e.Stats.StructReads != 1 {
		t.Errorf("struct reads = %d/%d, want 1", e.CurStructRead(), e.Stats.StructReads)
	}
}

func TestBoundaryIdleNoFlag(t *testing.T) {
	e := NewEngine(0, nil)
	_ = e.Arch.SetBoundary(0, 0x10000, 4096)
	_ = e.Arch.EnableBoundary(0)
	r := mem.NewRequest(mem.ReqLoad, 0x10000, 1, 0, 0)
	e.PreAccess(r)
	if r.StructFlag {
		t.Error("flag set while engine idle")
	}
}

func TestRecordSequenceAndOffsets(t *testing.T) {
	base := mem.Addr(0x10000)
	e := setup(t, base, 1<<16, 4)
	misses := []uint64{9, 12, 9, 20, 1} // line offsets, the paper's example
	for _, off := range misses {
		structMiss(e, base+mem.Addr(off*mem.LineSize))
	}
	seq := e.Sequence()
	if len(seq) != len(misses) {
		t.Fatalf("recorded %d entries, want %d", len(seq), len(misses))
	}
	for i, off := range misses {
		if seq[i].LineOff() != off || seq[i].Slot() != 0 {
			t.Errorf("entry %d = slot %d off %d, want slot 0 off %d",
				i, seq[i].Slot(), seq[i].LineOff(), off)
		}
	}
}

func TestRecordIgnoresHitsAndUnflagged(t *testing.T) {
	e := setup(t, 0x10000, 4096, 4)
	e.OnAccess(cache.AccessInfo{Line: 0x10000, Hit: true, StructFlag: true}, nil)
	e.OnAccess(cache.AccessInfo{Line: 0x10000, Merged: true, StructFlag: true}, nil)
	e.OnAccess(cache.AccessInfo{Line: 0x10000, StructFlag: false}, nil)
	if len(e.Sequence()) != 0 {
		t.Errorf("recorded %d entries from non-misses", len(e.Sequence()))
	}
}

func TestDivisionTableCumulativeReads(t *testing.T) {
	base := mem.Addr(0x10000)
	e := setup(t, base, 1<<20, 2) // window = 2 misses
	// Simulate interleaved reads (some hit) and misses: 3 reads then miss,
	// 2 reads then miss, 1 read then miss, 4 reads then miss.
	pattern := []struct {
		reads int
		off   uint64
	}{{3, 0}, {2, 1}, {1, 2}, {4, 3}}
	reads := uint64(0)
	for _, p := range pattern {
		for i := 0; i < p.reads; i++ {
			r := mem.NewRequest(mem.ReqLoad, base+mem.Addr(p.off*mem.LineSize), 1, 0, 0)
			e.PreAccess(r)
			reads++
		}
		structMiss(e, base+mem.Addr(p.off*mem.LineSize))
	}
	div := e.Division()
	// Window of 2: boundaries after miss 2 (reads=5) and miss 4 (reads=10).
	if len(div) != 2 || div[0] != 5 || div[1] != 10 {
		t.Errorf("division table = %v, want [5 10]", div)
	}
}

func TestMetadataWriteGrouping(t *testing.T) {
	base := mem.Addr(0x10000)
	e := setup(t, base, 1<<20, 1024)
	// 16 entries x 4 B = 64 B: exactly one metadata line write.
	for i := 0; i < 16; i++ {
		structMiss(e, base+mem.Addr(i*mem.LineSize))
	}
	if e.Stats.MetaWriteLines != 1 {
		t.Errorf("meta writes = %d after 16 entries, want 1", e.Stats.MetaWriteLines)
	}
	for i := 16; i < 31; i++ {
		structMiss(e, base+mem.Addr(i*mem.LineSize))
	}
	if e.Stats.MetaWriteLines != 1 {
		t.Errorf("meta writes = %d after 31 entries, want still 1", e.Stats.MetaWriteLines)
	}
	structMiss(e, base+mem.Addr(31*mem.LineSize))
	if e.Stats.MetaWriteLines != 2 {
		t.Errorf("meta writes = %d after 32 entries, want 2", e.Stats.MetaWriteLines)
	}
}

func TestFinalizeFlushesPartialBuffers(t *testing.T) {
	base := mem.Addr(0x10000)
	e := setup(t, base, 1<<20, 1024)
	for i := 0; i < 5; i++ {
		structMiss(e, base+mem.Addr(i*mem.LineSize))
	}
	e.HandleMarker(trace.Mark(trace.MarkReplay, 0, 0, 0), 100)
	if e.Stats.MetaWriteLines < 2 { // partial seq line + div line
		t.Errorf("finalize flushed %d lines, want >= 2", e.Stats.MetaWriteLines)
	}
	if got := e.Stats.SeqTableBytes; got != 5*SeqEntryBytes {
		t.Errorf("SeqTableBytes = %d, want %d", got, 5*SeqEntryBytes)
	}
	if len(e.Division()) != 1 {
		t.Errorf("division table %v, want one terminator entry", e.Division())
	}
}

// replayCollector gathers replayed prefetch lines.
type replayCollector struct {
	lines []mem.Addr
	limit int // reject issues beyond limit if > 0
}

func (c *replayCollector) issue(line mem.Addr) bool {
	if c.limit > 0 && len(c.lines) >= c.limit {
		return false
	}
	c.lines = append(c.lines, line)
	return true
}

// recordAndReplay records the offsets then switches to replay.
func recordAndReplay(t *testing.T, base mem.Addr, window uint64, offs []uint64) (*Engine, *replayCollector) {
	t.Helper()
	e := setup(t, base, 1<<20, window)
	for _, off := range offs {
		// one struct read per miss to give the division table substance
		r := mem.NewRequest(mem.ReqLoad, base+mem.Addr(off*mem.LineSize), 1, 0, 0)
		e.PreAccess(r)
		structMiss(e, base+mem.Addr(off*mem.LineSize))
	}
	e.HandleMarker(trace.Mark(trace.MarkReplay, 0, 0, 0), 100)
	return e, &replayCollector{}
}

func TestReplayReproducesSequence(t *testing.T) {
	base := mem.Addr(0x10000)
	offs := []uint64{9, 12, 9, 20, 1}
	e, c := recordAndReplay(t, base, 2, offs)
	e.Control = NoControl
	for cy := uint64(0); cy < 100 && len(c.lines) < len(offs); cy++ {
		e.OnCycle(cy, c.issue)
	}
	if len(c.lines) != len(offs) {
		t.Fatalf("replayed %d prefetches, want %d", len(c.lines), len(offs))
	}
	for i, off := range offs {
		want := base + mem.Addr(off*mem.LineSize)
		if c.lines[i] != want {
			t.Errorf("prefetch %d = %#x, want %#x", i, uint64(c.lines[i]), uint64(want))
		}
	}
}

func TestReplayUsesSwappedBase(t *testing.T) {
	// Algorithm 1: p_curr and p_next swap between iterations; the replay
	// must target the *currently enabled* base with recorded offsets.
	base1, base2 := mem.Addr(0x10000), mem.Addr(0x90000)
	e, c := recordAndReplay(t, base1, 4, []uint64{3, 7})
	e.Control = NoControl
	// Swap: program slot 0 to the other buffer, as line 31-33 of Alg. 1.
	e.HandleMarker(trace.Mark(trace.MarkAddrBaseSet, base2, 1<<20, 0), 0)
	e.HandleMarker(trace.Mark(trace.MarkAddrBaseEnable, 0, 0, 0), 0)
	e.HandleMarker(trace.Mark(trace.MarkReplay, 0, 0, 0), 0)
	for cy := uint64(0); cy < 100 && len(c.lines) < 2; cy++ {
		e.OnCycle(cy, c.issue)
	}
	if len(c.lines) != 2 || c.lines[0] != base2+3*mem.LineSize || c.lines[1] != base2+7*mem.LineSize {
		t.Errorf("replay after swap issued %#v", c.lines)
	}
}

func TestWindowControlGatesProgress(t *testing.T) {
	base := mem.Addr(0x10000)
	// 8 misses, window 2 => 4 windows. With window control, only windows
	// 0 and 1 (entries 0..3) may prefetch before any program progress.
	offs := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	e, c := recordAndReplay(t, base, 2, offs)
	e.Control = WindowControl
	for cy := uint64(0); cy < 50; cy++ {
		e.OnCycle(cy, c.issue)
	}
	if len(c.lines) != 4 {
		t.Fatalf("window control allowed %d prefetches before progress, want 4", len(c.lines))
	}
	// Program consumes window 0 (2 struct reads recorded per window).
	for i := 0; i < 2; i++ {
		r := mem.NewRequest(mem.ReqLoad, base, 1, 0, 0)
		e.PreAccess(r)
	}
	for cy := uint64(50); cy < 100; cy++ {
		e.OnCycle(cy, c.issue)
	}
	if len(c.lines) != 6 {
		t.Errorf("after consuming window 0: %d prefetches, want 6", len(c.lines))
	}
}

func TestNoControlIgnoresProgress(t *testing.T) {
	base := mem.Addr(0x10000)
	offs := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	e, c := recordAndReplay(t, base, 2, offs)
	e.Control = NoControl
	for cy := uint64(0); cy < 50; cy++ {
		e.OnCycle(cy, c.issue)
	}
	if len(c.lines) != 8 {
		t.Errorf("no-control replay issued %d, want all 8", len(c.lines))
	}
}

func TestPaceControlSpreadsWithinWindow(t *testing.T) {
	base := mem.Addr(0x10000)
	// Window of 4 misses; window 0 spans 8 struct reads (2 reads/miss).
	var offs []uint64
	e := setup(t, base, 1<<20, 4)
	for i := uint64(0); i < 8; i++ {
		offs = append(offs, i)
		for j := 0; j < 2; j++ {
			r := mem.NewRequest(mem.ReqLoad, base+mem.Addr(i*mem.LineSize), 1, 0, 0)
			e.PreAccess(r)
		}
		structMiss(e, base+mem.Addr(i*mem.LineSize))
	}
	e.HandleMarker(trace.Mark(trace.MarkReplay, 0, 0, 0), 0)
	e.Control = WindowPaceControl
	c := &replayCollector{}

	// Window 0 (entries 0-3) is eligible instantly.
	for cy := uint64(0); cy < 50; cy++ {
		e.OnCycle(cy, c.issue)
	}
	if len(c.lines) != 4 {
		t.Fatalf("pace control pre-progress issued %d, want 4", len(c.lines))
	}
	// Half of window 0's reads consumed (4 of 8): half of window 1
	// (2 entries) becomes eligible.
	for i := 0; i < 4; i++ {
		r := mem.NewRequest(mem.ReqLoad, base, 1, 0, 0)
		e.PreAccess(r)
	}
	for cy := uint64(50); cy < 100; cy++ {
		e.OnCycle(cy, c.issue)
	}
	if len(c.lines) != 6 {
		t.Errorf("pace control at half window issued %d, want 6", len(c.lines))
	}
}

func TestReplayBackpressureRetries(t *testing.T) {
	base := mem.Addr(0x10000)
	offs := []uint64{0, 1, 2}
	e, c := recordAndReplay(t, base, 4, offs)
	e.Control = NoControl
	c.limit = 1
	e.OnCycle(0, c.issue)
	if len(c.lines) != 1 {
		t.Fatalf("issued %d with limit 1", len(c.lines))
	}
	c.limit = 0
	for cy := uint64(1); cy < 20; cy++ {
		e.OnCycle(cy, c.issue)
	}
	if len(c.lines) != 3 {
		t.Errorf("after backpressure: %d prefetches, want 3 (no loss, no dup)", len(c.lines))
	}
	if e.Stats.Prefetches != 3 {
		t.Errorf("Stats.Prefetches = %d, want 3", e.Stats.Prefetches)
	}
}

func TestTimelinessClassification(t *testing.T) {
	base := mem.Addr(0x10000)
	e, c := recordAndReplay(t, base, 4, []uint64{0, 1, 2})
	e.Control = NoControl
	for cy := uint64(0); cy < 20; cy++ {
		e.OnCycle(cy, c.issue)
	}
	// Line 0: evicted unused then demanded -> early.
	e.OnEvict(base+0*mem.LineSize, true, 30)
	e.OnAccess(cache.AccessInfo{Line: base, StructFlag: true}, nil)
	// Line 1: evicted unused, never demanded -> out-of-window at iter end.
	e.OnEvict(base+1*mem.LineSize, true, 31)
	// Line 2: demanded as a hit -> on-time (counted by the cache).
	e.OnAccess(cache.AccessInfo{Line: base + 2*mem.LineSize, Hit: true, PrefHit: true, StructFlag: true}, nil)
	e.HandleMarker(trace.Mark(trace.MarkPause, 0, 0, 0), 40)
	if e.Stats.EarlyPrefetches != 1 {
		t.Errorf("early = %d, want 1", e.Stats.EarlyPrefetches)
	}
	if e.Stats.OutOfWindow != 1 {
		t.Errorf("out-of-window = %d, want 1", e.Stats.OutOfWindow)
	}
}

func TestPauseResumeRoundTrip(t *testing.T) {
	base := mem.Addr(0x10000)
	e := setup(t, base, 1<<20, 4)
	structMiss(e, base)
	e.HandleMarker(trace.Mark(trace.MarkPause, 0, 0, 0), 0)
	if e.Arch.State != StatePausedRecord {
		t.Fatalf("state after pause = %v", e.Arch.State)
	}
	// Misses while paused are not recorded.
	structMiss(e, base+mem.LineSize)
	if len(e.Sequence()) != 1 {
		t.Errorf("recorded while paused: %d entries", len(e.Sequence()))
	}
	e.HandleMarker(trace.Mark(trace.MarkResume, 0, 0, 0), 0)
	if e.Arch.State != StateRecord {
		t.Fatalf("state after resume = %v", e.Arch.State)
	}
	structMiss(e, base+2*mem.LineSize)
	if len(e.Sequence()) != 2 {
		t.Errorf("sequence after resume = %d entries, want 2", len(e.Sequence()))
	}
	if e.Stats.Pauses != 1 || e.Stats.Resumes != 1 {
		t.Errorf("pause/resume stats %d/%d", e.Stats.Pauses, e.Stats.Resumes)
	}
}

func TestSaveRestoreAcrossContextSwitch(t *testing.T) {
	base := mem.Addr(0x10000)
	e, c := recordAndReplay(t, base, 2, []uint64{0, 1, 2, 3})
	e.Control = NoControl
	e.OnCycle(0, c.issue) // issues up to maxIssuePerCycle
	e.HandleMarker(trace.Mark(trace.MarkPause, 0, 0, 0), 1)
	saved := e.Save()

	// Clobber, then restore into a fresh engine sharing the metadata
	// tables (they live in program memory).
	e2 := NewEngine(0, nil)
	e2.Control = NoControl
	e2.seq = e.seq
	e2.div = e.div
	e2.Restore(saved)
	e2.HandleMarker(trace.Mark(trace.MarkResume, 0, 0, 0), 2)
	if e2.Arch.State != StateReplay {
		t.Fatalf("restored state = %v", e2.Arch.State)
	}
	for cy := uint64(3); cy < 20; cy++ {
		e2.OnCycle(cy, c.issue)
	}
	if len(c.lines) != 4 {
		t.Errorf("after migration replay issued %d total, want 4", len(c.lines))
	}
	for i, want := range []mem.Addr{base, base + 0x40, base + 0x80, base + 0xc0} {
		if c.lines[i] != want {
			t.Errorf("prefetch %d = %#x, want %#x", i, uint64(c.lines[i]), uint64(want))
		}
	}
}

func TestSeqTableOverflowStopsRecording(t *testing.T) {
	base := mem.Addr(0x10000)
	e := NewEngine(0, nil)
	e.DefaultWindow = 4
	e.HandleMarker(trace.Mark(trace.MarkInit, 0, 0, 0), 0)
	e.HandleMarker(trace.Mark(trace.MarkSeqTable, 0x7000_0000, 8*SeqEntryBytes, 0), 0)
	e.HandleMarker(trace.Mark(trace.MarkDivTable, 0x7100_0000, 1<<12, 0), 0)
	e.HandleMarker(trace.Mark(trace.MarkAddrBaseSet, base, 1<<20, 0), 0)
	e.HandleMarker(trace.Mark(trace.MarkAddrBaseEnable, 0, 0, 0), 0)
	e.HandleMarker(trace.Mark(trace.MarkRecordStart, 0, 0, 0), 0)
	for i := 0; i < 20; i++ {
		structMiss(e, base+mem.Addr(i*mem.LineSize))
	}
	if len(e.Sequence()) != 8 {
		t.Errorf("sequence grew to %d, cap 8", len(e.Sequence()))
	}
	if e.Stats.SeqOverflows != 12 {
		t.Errorf("overflows = %d, want 12", e.Stats.SeqOverflows)
	}
}

func TestSeqEntryPacking(t *testing.T) {
	prop := func(slot uint8, off uint32) bool {
		s := int(slot % NumBoundarySlots)
		o := uint64(off & 0x0fffffff)
		e := NewSeqEntry(s, o)
		return e.Slot() == s && e.LineOff() == o
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestHardwareBudget(t *testing.T) {
	b := Budget()
	if got := b.TotalBytes(); got >= 1024 {
		t.Errorf("per-core budget = %.1f B, paper requires < 1 KB", got)
	}
	if got := b.SavedBytes(); got < 60 || got > 120 {
		t.Errorf("save/restore set = %.1f B, paper reports 86.5 B", got)
	}
	if len(b.Items) < 10 {
		t.Errorf("budget itemisation suspiciously short: %d items", len(b.Items))
	}
}

func TestInRangePredicate(t *testing.T) {
	e := setup(t, 0x10000, 4096, 4)
	if !e.InRange(0x10000) || !e.InRange(0x10fc0) {
		t.Error("InRange misses enabled boundary")
	}
	if e.InRange(0x11000) || e.InRange(0xffc0) {
		t.Error("InRange includes outside lines")
	}
	// Disabled (but valid) boundaries still count for filtering (§V-D).
	e.HandleMarker(trace.Mark(trace.MarkAddrBaseDisable, 0, 0, 0), 0)
	if !e.InRange(0x10000) {
		t.Error("InRange must cover valid-but-disabled boundaries")
	}
}

func TestTLBLookupPer4MBPage(t *testing.T) {
	base := mem.Addr(0x10000)
	e := setup(t, base, 1<<30, 1<<20)
	// Write > 4 MB of sequence entries: 4 MB / 4 B = 1M entries. Instead
	// of looping a million times, check the first flush triggers exactly
	// one lookup and subsequent flushes on the same page none.
	for i := 0; i < 64; i++ { // 4 metadata lines
		structMiss(e, base+mem.Addr(i*mem.LineSize))
	}
	if e.Stats.TLBLookups != 1 {
		t.Errorf("TLB lookups = %d for writes within one 4MB page, want 1", e.Stats.TLBLookups)
	}
}
