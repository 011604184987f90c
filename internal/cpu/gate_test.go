package cpu

import (
	"testing"

	"rnrsim/internal/mem"
	"rnrsim/internal/trace"
)

func TestGatePausesFetchNotRetire(t *testing.T) {
	b := trace.NewBuilder(0)
	b.Exec(20)
	b.IterEnd(0)
	b.Exec(20)
	m := newStubMem(1)
	c := newCore(0, Default(), b.Source(), m)

	gated := false
	c.Gate = func() bool { return !gated }
	c.OnMarker = func(rec trace.Record, cycle uint64) {
		if rec.Marker == trace.MarkIterEnd {
			gated = true // close the gate at the barrier, like the SPMD sim
		}
	}
	for i := 1; i <= 50; i++ {
		tick(c, uint64(i))
		m.Tick(uint64(i))
	}
	if c.Done() {
		t.Fatal("core ran past a closed gate")
	}
	retired := c.Stats.Instructions
	if retired < 21 { // first bundle + the marker must retire
		t.Errorf("only %d instructions retired while gated, want >= 21", retired)
	}
	// The gate closes mid-fetch-group: at most the rest of that cycle's
	// fetch group (width 4) slips through before the gate takes effect.
	if retired > 24 {
		t.Errorf("%d instructions retired: fetch leaked past the gate", retired)
	}
	gated = false
	for i := 51; i <= 200 && !c.Done(); i++ {
		tick(c, uint64(i))
		m.Tick(uint64(i))
	}
	if !c.Done() {
		t.Fatal("core never finished after the gate opened")
	}
	if c.Stats.Instructions != 41 { // 20 + marker + 20
		t.Errorf("retired %d, want 41", c.Stats.Instructions)
	}
}

func TestPreAccessRunsOncePerInstruction(t *testing.T) {
	// Regression test: a dispatch retry behind a full L1 must not re-run
	// the side-effecting PreAccess (it advances Cur Struct Read).
	b := trace.NewBuilder(0)
	for i := 0; i < 4; i++ {
		b.Load(uint64(i), mem.Addr(0x1000+i*64), 8, -1)
	}
	m := newStubMem(1)
	m.rejectAll = true
	c := newCore(0, Default(), b.Source(), m)
	calls := 0
	c.PreAccess = func(r *mem.Request) { calls++ }
	for i := 1; i <= 20; i++ {
		tick(c, uint64(i))
		m.Tick(uint64(i))
	}
	if calls != 1 {
		t.Fatalf("PreAccess ran %d times for one blocked load, want 1", calls)
	}
	m.rejectAll = false
	runCore(c, m, 1000)
	if calls != 4 {
		t.Errorf("PreAccess ran %d times for 4 loads, want 4", calls)
	}
}

func TestAvgLoadLatency(t *testing.T) {
	b := trace.NewBuilder(0)
	b.Load(1, 0x100, 8, -1)
	b.Load(2, 0x200, 8, -1)
	m := newStubMem(10)
	c := newCore(0, Default(), b.Source(), m)
	runCore(c, m, 1000)
	if got := c.Stats.AvgLoadLatency(); got < 5 || got > 30 {
		t.Errorf("avg load latency = %.1f, want ~10", got)
	}
	var empty Stats
	if empty.AvgLoadLatency() != 0 {
		t.Error("empty stats latency non-zero")
	}
}

func TestROBWraparound(t *testing.T) {
	// Run much more work than the ROB size to exercise ring wraparound.
	cfg := Default()
	cfg.ROB = 8
	cfg.LSQ = 4
	b := trace.NewBuilder(0)
	for i := 0; i < 100; i++ {
		b.Load(uint64(i), mem.Addr(0x40*i), 8, -1)
		b.Exec(3)
	}
	m := newStubMem(7)
	c := newCore(0, cfg, b.Source(), m)
	runCore(c, m, 100000)
	if !c.Done() {
		t.Fatal("core never finished with a tiny ROB")
	}
	if c.Stats.Instructions != 400 {
		t.Errorf("retired %d, want 400", c.Stats.Instructions)
	}
}

func TestExecBundleSplitAcrossCycles(t *testing.T) {
	b := trace.NewBuilder(0)
	b.Exec(10) // wider than one fetch group
	m := newStubMem(1)
	c := newCore(0, Default(), b.Source(), m)
	tick(c, 1)
	if c.Stats.Instructions != 0 {
		t.Error("instructions retired in the dispatch cycle")
	}
	runCore(c, m, 100)
	if c.Stats.Instructions != 10 {
		t.Errorf("retired %d, want 10", c.Stats.Instructions)
	}
	// 10 instructions at width 4 need >= 3 dispatch cycles.
	if c.Stats.Cycles < 3 {
		t.Errorf("cycles = %d, implausibly fast", c.Stats.Cycles)
	}
}
