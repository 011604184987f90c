package rnr

import (
	"testing"

	"rnrsim/internal/dram"
	"rnrsim/internal/mem"
)

// TestMetadataStreamAllocatesNothing: once warm, the replay's metadata
// stream (sequence- and division-table line reads through the DRAM
// controller, including reads orphaned by a replay reset and completed
// stale) allocates nothing: each read is a recycled engine slot.
func TestMetadataStreamAllocatesNothing(t *testing.T) {
	mc := dram.New(dram.Default())
	// The controller alone on the clock, at slot 0 with the walk past it.
	clk := &mem.Clock{Cursor: 1}
	mc.BindClock(clk, 0)
	e := buildRecorded(t, mc, 4096, 256)
	var cycle uint64
	resets := 0
	step := func() {
		cycle++
		clk.Cycle = cycle
		mc.Tick(cycle)
		e.streamMetadata(cycle)
		// Consume whatever arrived, as if every fetched entry had been
		// prefetched and every fetched window passed, so the stream
		// keeps running; restart it at the table's end.
		e.nextIdx = e.fetchedIdx
		e.curWindow = e.divFetched
		if e.metaIssued >= len(e.seq) {
			e.resetReplayState() // orphans the reads still in flight
			resets++
		}
	}
	for i := 0; i < 5000; i++ {
		step()
	}
	lines, resetsBefore := e.Stats.MetaReadLines, resets
	// One measured run of many cycles counts allocations exactly, so a
	// chunked carve cannot average down to zero.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10000; i++ {
			step()
		}
	})
	if allocs != 0 {
		t.Errorf("metadata stream allocates %.0f objects over 10000 cycles, want 0", allocs)
	}
	if e.Stats.MetaReadLines-lines < 500 || resets == resetsBefore {
		t.Errorf("measured %d metadata reads and %d resets: the stream did not run",
			e.Stats.MetaReadLines-lines, resets-resetsBefore)
	}
	var laws []string
	e.NewAuditor().Check(func(law string) { laws = append(laws, law) })
	if len(laws) > 0 {
		t.Errorf("audit: %v", laws)
	}
}
