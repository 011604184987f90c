package sim

import (
	"testing"

	"rnrsim/internal/mem"
)

// instantMem completes reads immediately for idealLLC unit tests.
type instantMem struct {
	reads  int
	writes int
	clock  uint64
}

func (m *instantMem) TryEnqueue(r *mem.Request) bool {
	switch r.Type {
	case mem.ReqWriteback, mem.ReqMetaWrite:
		m.writes++
		r.Complete(m.clock)
	default:
		m.reads++
		r.Complete(m.clock + 100)
	}
	return true
}

// bindIdeal binds c to a clock of its own, at slot 0 with the walk past
// it, so c reads the clock's cycle.
func bindIdeal(c *idealLLC) *mem.Clock {
	clk := &mem.Clock{Cursor: 1}
	c.clock, c.slot = clk, 0
	return clk
}

func TestIdealLLCColdMissThenHit(t *testing.T) {
	lower := &instantMem{}
	c := newIdealLLC(40, lower)
	clk := bindIdeal(c)

	var first, second uint64
	r1 := mem.NewRequest(mem.ReqLoad, 0x1000, 1, 0, 0)
	r1.Done = func(cy uint64) { first = cy }
	c.TryEnqueue(r1)
	if lower.reads != 1 {
		t.Fatalf("cold miss did not reach memory (reads=%d)", lower.reads)
	}
	if first == 0 {
		t.Fatal("cold miss never completed")
	}

	r2 := mem.NewRequest(mem.ReqLoad, 0x1000, 1, 0, 0)
	r2.Done = func(cy uint64) { second = cy }
	c.TryEnqueue(r2)
	for i := uint64(1); i <= 60; i++ {
		clk.Cycle = i
		c.Tick(i)
	}
	if second == 0 {
		t.Fatal("hit never completed")
	}
	if lower.reads != 1 {
		t.Errorf("hit leaked to memory (reads=%d)", lower.reads)
	}
}

func TestIdealLLCAbsorbsWritebacksButNotMetadata(t *testing.T) {
	lower := &instantMem{}
	c := newIdealLLC(40, lower)
	bindIdeal(c)

	wb := mem.NewRequest(mem.ReqWriteback, 0x2000, 0, -1, 0)
	done := false
	wb.Done = func(uint64) { done = true }
	c.TryEnqueue(wb)
	if lower.writes != 0 {
		t.Error("ideal LLC forwarded a data writeback")
	}
	if !done {
		t.Error("absorbed writeback not completed")
	}

	mw := mem.NewRequest(mem.ReqMetaWrite, 0x3000, 0, 0, 0)
	c.TryEnqueue(mw)
	if lower.writes != 1 {
		t.Error("metadata write must reach memory for honest accounting")
	}
	mr := mem.NewRequest(mem.ReqMetaRead, 0x3000, 0, 0, 0)
	mr.Done = func(uint64) {}
	c.TryEnqueue(mr)
	if lower.reads != 1 {
		t.Error("metadata read must bypass the ideal LLC")
	}
}

func TestBarrierOpensWhenAllArrive(t *testing.T) {
	b := newBarrier([]int{0, 1, 2})
	doneCores := map[int]bool{}
	b.done = func(c int) bool { return doneCores[c] }
	opened := []int32{}
	b.onOpen = func(iter int32) { opened = append(opened, iter) }

	b.arrive(0, 5)
	b.arrive(1, 5)
	if len(opened) != 0 {
		t.Fatal("barrier opened early")
	}
	if !b.gated(0) || !b.gated(1) || b.gated(2) {
		t.Error("gating state wrong mid-barrier")
	}
	b.arrive(2, 5)
	if len(opened) != 1 || opened[0] != 5 {
		t.Fatalf("opened = %v", opened)
	}
	if b.gated(0) || b.gated(1) || b.gated(2) {
		t.Error("cores still gated after open")
	}
}

func TestBarrierTreatsDrainedCoresAsArrived(t *testing.T) {
	b := newBarrier([]int{0, 1})
	doneCores := map[int]bool{1: true} // core 1 finished its trace
	b.done = func(c int) bool { return doneCores[c] }
	opened := 0
	b.onOpen = func(int32) { opened++ }
	b.arrive(0, 7)
	if opened != 1 {
		t.Errorf("barrier did not open with a drained core (opened=%d)", opened)
	}
}

// TestBarrierArrivedCountsWaitingMembers: the waiting count that lets
// the end-of-cycle check skip a barrier tracks arrivals (a repeated
// arrival counts once) and drops to zero when the barrier opens, here
// because the other member drained while the first waited.
func TestBarrierArrivedCountsWaitingMembers(t *testing.T) {
	b := newBarrier([]int{0, 1})
	doneCores := map[int]bool{}
	b.done = func(c int) bool { return doneCores[c] }
	b.arrive(0, 3)
	b.arrive(0, 3)
	if b.arrived != 1 || !b.gated(0) {
		t.Fatalf("after core 0 arrives: arrived %d, gated %v; want 1, true", b.arrived, b.gated(0))
	}
	doneCores[1] = true
	b.maybeOpen()
	if b.arrived != 0 || b.gated(0) {
		t.Errorf("after core 1 drains: arrived %d, gated %v; want 0, false", b.arrived, b.gated(0))
	}
}
