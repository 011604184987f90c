package dram

import (
	"testing"

	"rnrsim/internal/mem"
)

// TestWakeupWaitsForAServiceSlot: with MaxInFlight reads in service a
// queued demand read cannot issue until a transfer completes, even on an
// idle bank, so the controller's wakeup is the first finish time. A
// prefetch read may take the extra low-priority slot, so queuing one on
// an idle bank wakes the controller on the next cycle.
func TestWakeupWaitsForAServiceSlot(t *testing.T) {
	cfg := Default()
	c := newController(cfg)
	row := mem.Addr(cfg.RowBytes) // consecutive rows map to consecutive banks
	demand := func(bank int) *mem.Request {
		r := mem.NewRequest(mem.ReqLoad, mem.Addr(bank)*row, 1, 0, 0)
		r.Done = func(uint64) {}
		return r
	}
	for b := 0; b < cfg.MaxInFlight; b++ {
		if !c.TryEnqueue(demand(b)) {
			t.Fatalf("enqueue %d rejected", b)
		}
	}
	tick(c, 1)
	if len(c.inService) != cfg.MaxInFlight {
		t.Fatalf("%d reads in service, want %d", len(c.inService), cfg.MaxInFlight)
	}
	firstFinish := uint64(mem.WakeupNever)
	for _, p := range c.inService {
		if p.finish < firstFinish {
			firstFinish = p.finish
		}
	}

	idle := cfg.MaxInFlight // a bank no read has touched
	if !c.TryEnqueue(demand(idle)) {
		t.Fatal("demand enqueue rejected")
	}
	if w := c.Wakeup(1); w != firstFinish {
		t.Errorf("demand read behind full slots: Wakeup(1) = %d, want the first finish %d", w, firstFinish)
	}
	tick(c, 2)
	if len(c.inService) != cfg.MaxInFlight || len(c.readQ) != 1 {
		t.Fatalf("a tick before the first finish issued: %d in service, %d queued", len(c.inService), len(c.readQ))
	}

	pf := mem.NewRequest(mem.ReqPrefetch, mem.Addr(idle+1)*row, 1, 0, 2)
	if !c.TryEnqueue(pf) {
		t.Fatal("prefetch enqueue rejected")
	}
	if w := c.Wakeup(2); w != 3 {
		t.Errorf("prefetch read on an idle bank: Wakeup(2) = %d, want 3", w)
	}
	tick(c, 3)
	if len(c.inService) != cfg.MaxInFlight+1 || c.Stats.PrefetchReads != 1 {
		t.Errorf("the prefetch did not take the extra slot: %d in service, %d prefetch reads",
			len(c.inService), c.Stats.PrefetchReads)
	}
}
