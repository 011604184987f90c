package cache

import (
	"testing"

	"rnrsim/internal/mem"
)

// TestWakeupFrozenMissIgnoresRequeueStamp: a read-queue head that misses
// with every MSHR busy is frozen until a fill, whatever its ready stamp.
// Tick's failed retry re-queues the head at now+1; that stamp must not
// wake the cache on the next cycle (the retry would change nothing).
// The fill that frees an MSHR sets the wake flag, and the recomputed
// wakeup is the next cycle.
func TestWakeupFrozenMissIgnoresRequeueStamp(t *testing.T) {
	cfg := testConfig(4096, 4)
	cfg.MSHRs = 2
	c := newCache(cfg)
	m := &fakeMemory{latency: 50}
	c.SetLower(m)
	flag := make([]uint64, 1)
	c.BindWakeFlag(mem.NewWakeFlag(flag, 0))

	var done [3]uint64
	for i := range done {
		if !c.TryEnqueue(newLoad(mem.Addr(0x1000*(i+1)), 1, &done[i])) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	// Cycle 2 (enqueue latency): both lookups miss and take both MSHRs.
	tick(c, 2)
	if len(c.mshrs) != 2 || c.readQ.n != 1 {
		t.Fatalf("after cycle 2: %d MSHRs, %d queued; want 2, 1", len(c.mshrs), c.readQ.n)
	}
	if w := c.Wakeup(2); w != mem.WakeupNever {
		t.Errorf("frozen head before its retry: Wakeup(2) = %d, want WakeupNever", w)
	}
	// Cycle 3: the third lookup stalls and is re-queued at ready 4.
	accesses := c.Stats.DemandAccesses
	tick(c, 3)
	if f := c.readQ.front(); f.ready != 4 {
		t.Fatalf("re-queued head ready at %d, want 4", f.ready)
	}
	if c.Stats.DemandAccesses != accesses {
		t.Errorf("a stalled retry changed DemandAccesses %d -> %d", accesses, c.Stats.DemandAccesses)
	}
	if w := c.Wakeup(3); w != mem.WakeupNever {
		t.Errorf("frozen head after its re-queue: Wakeup(3) = %d, want WakeupNever", w)
	}

	flag[0] = 0
	var now uint64
	for now = 4; done[0] == 0 && done[1] == 0 && now < 200; now++ {
		m.Tick(now)
	}
	now--
	if done[0] == 0 && done[1] == 0 {
		t.Fatal("no miss completed")
	}
	if flag[0] == 0 {
		t.Error("the fill that freed an MSHR did not mark the wake flag")
	}
	if w := c.Wakeup(now); w != now+1 {
		t.Errorf("after the fill: Wakeup(%d) = %d, want %d", now, w, now+1)
	}
}
