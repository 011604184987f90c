package cache

import (
	"testing"

	"rnrsim/internal/mem"
)

// fakeMemory completes every request after a fixed latency. It implements
// mem.Backend and records traffic for assertions.
type fakeMemory struct {
	latency  uint64
	clock    uint64
	inFlight []*mem.Request
	finish   []uint64
	Reads    int
	Writes   int
	capacity int // 0 = unlimited
}

func (f *fakeMemory) TryEnqueue(r *mem.Request) bool {
	if f.capacity > 0 && len(f.inFlight) >= f.capacity {
		return false
	}
	switch r.Type {
	case mem.ReqWriteback, mem.ReqMetaWrite:
		f.Writes++
		r.Complete(f.clock)
		return true
	}
	f.Reads++
	f.inFlight = append(f.inFlight, r)
	f.finish = append(f.finish, f.clock+f.latency)
	return true
}

func (f *fakeMemory) Tick(now uint64) {
	f.clock = now
	kept, keptFin := f.inFlight[:0], f.finish[:0]
	for i, r := range f.inFlight {
		if f.finish[i] <= now {
			r.Complete(now)
		} else {
			kept = append(kept, r)
			keptFin = append(keptFin, f.finish[i])
		}
	}
	f.inFlight, f.finish = kept, keptFin
}

// newCache builds a cache on a clock of its own, at slot 0 (see bind).
func newCache(cfg Config) *Cache {
	c := New(cfg)
	bind(&mem.Clock{}, c)
	return c
}

// bind binds caches to slots 0, 1, ... of clk in tick order, the way the
// System binds its wake table, with the walk past every slot, so each
// reads clk's cycle until tick moves the clock.
func bind(clk *mem.Clock, cs ...*Cache) {
	for i, c := range cs {
		c.BindClock(clk, i)
	}
	clk.Cursor = len(cs)
}

// tick ticks c at cycle now the way the System's walk does: the clock
// moves to now with the walk just past c's slot.
func tick(c *Cache, now uint64) {
	c.clk.Cycle, c.clk.Cursor = now, c.slot+1
	c.Tick(now)
}

func testConfig(size uint64, ways int) Config {
	return Config{
		Name: "test", SizeBytes: size, Ways: ways, Latency: 2,
		MSHRs: 8, ReadQ: 16, PrefQ: 16, WriteQ: 16, Bandwidth: 2,
	}
}

// run drives the cache and memory until the request set completes or the
// cycle budget is exhausted.
func run(c *Cache, m *fakeMemory, until func() bool, budget int) uint64 {
	var now uint64
	for i := 0; i < budget; i++ {
		now++
		tick(c, now)
		m.Tick(now)
		if until() {
			return now
		}
	}
	return now
}

func newLoad(addr mem.Addr, pc uint64, done *uint64) *mem.Request {
	r := mem.NewRequest(mem.ReqLoad, addr, pc, 0, 0)
	r.Done = func(cycle uint64) { *done = cycle }
	return r
}

func TestMissThenHit(t *testing.T) {
	c := newCache(testConfig(4096, 4))
	m := &fakeMemory{latency: 50}
	c.SetLower(m)

	var t1, t2 uint64
	if !c.TryEnqueue(newLoad(0x1000, 1, &t1)) {
		t.Fatal("enqueue rejected")
	}
	run(c, m, func() bool { return t1 != 0 }, 200)
	if t1 == 0 {
		t.Fatal("first load never completed")
	}
	if t1 < 50 {
		t.Errorf("miss completed at %d, faster than memory latency", t1)
	}
	if c.Stats.DemandMisses != 1 || c.Stats.DemandHits != 0 {
		t.Errorf("after miss: %+v", c.Stats)
	}

	if !c.TryEnqueue(newLoad(0x1008, 1, &t2)) { // same line, different byte
		t.Fatal("enqueue rejected")
	}
	start := t1
	end := run(c, m, func() bool { return t2 != 0 }, 200)
	if t2 == 0 {
		t.Fatal("second load never completed")
	}
	if t2-start > 10 {
		t.Errorf("hit took %d cycles (%d..%d), want ~latency", t2-start, start, end)
	}
	if c.Stats.DemandHits != 1 {
		t.Errorf("after hit: %+v", c.Stats)
	}
	if m.Reads != 1 {
		t.Errorf("memory reads = %d, want 1", m.Reads)
	}
}

func TestMSHRMergesSameLine(t *testing.T) {
	c := newCache(testConfig(4096, 4))
	m := &fakeMemory{latency: 80}
	c.SetLower(m)

	var d1, d2 uint64
	c.TryEnqueue(newLoad(0x2000, 1, &d1))
	c.TryEnqueue(newLoad(0x2010, 2, &d2))
	run(c, m, func() bool { return d1 != 0 && d2 != 0 }, 400)
	if d1 == 0 || d2 == 0 {
		t.Fatal("loads never completed")
	}
	if m.Reads != 1 {
		t.Errorf("memory reads = %d, want 1 (merge)", m.Reads)
	}
	if c.Stats.DemandMisses != 1 || c.Stats.DemandMerges != 1 {
		t.Errorf("stats %+v", c.Stats)
	}
	if d1 != d2 {
		t.Errorf("merged loads completed at %d and %d", d1, d2)
	}
}

func TestLRUEvictionAndWriteback(t *testing.T) {
	cfg := testConfig(mem.LineSize*2, 2) // one set, two ways
	c := newCache(cfg)
	m := &fakeMemory{latency: 10}
	c.SetLower(m)

	done := uint64(0)
	st := mem.NewRequest(mem.ReqStore, 0x0, 1, 0, 0)
	st.Done = func(cy uint64) { done = cy }
	c.TryEnqueue(st)
	run(c, m, func() bool { return done != 0 }, 100)

	// Fill the other way, then a third line to force evicting line 0
	// (LRU), which is dirty and must write back.
	for i, a := range []mem.Addr{0x40, 0x80} {
		d := uint64(0)
		c.TryEnqueue(newLoad(a, uint64(i+2), &d))
		run(c, m, func() bool { return d != 0 }, 100)
	}
	if c.Stats.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats.Evictions)
	}
	if c.Stats.Writebacks != 1 || m.Writes != 1 {
		t.Errorf("writebacks = %d, memory writes = %d, want 1/1", c.Stats.Writebacks, m.Writes)
	}
	if c.Lookup(0x0) {
		t.Error("evicted line still resident")
	}
	if !c.Lookup(0x40) || !c.Lookup(0x80) {
		t.Error("recently used lines were evicted")
	}
}

func TestPrefetchLifecycle(t *testing.T) {
	c := newCache(testConfig(4096, 4))
	m := &fakeMemory{latency: 30}
	c.SetLower(m)

	pf := mem.NewRequest(mem.ReqPrefetch, 0x3000, 0, 0, 0)
	if !c.TryPrefetch(pf) {
		t.Fatal("prefetch rejected")
	}
	run(c, m, func() bool { return c.Lookup(0x3000) }, 200)
	if c.Stats.PrefetchFills != 1 {
		t.Fatalf("prefetch fills = %d, want 1; stats %+v", c.Stats.PrefetchFills, c.Stats)
	}

	// Demand hit on the prefetched line: useful.
	var d uint64
	c.TryEnqueue(newLoad(0x3000, 9, &d))
	run(c, m, func() bool { return d != 0 }, 100)
	if c.Stats.PrefetchUseful != 1 {
		t.Errorf("useful = %d, want 1", c.Stats.PrefetchUseful)
	}
	// A second demand hit must not double count.
	d = 0
	c.TryEnqueue(newLoad(0x3000, 9, &d))
	run(c, m, func() bool { return d != 0 }, 100)
	if c.Stats.PrefetchUseful != 1 {
		t.Errorf("useful double-counted: %d", c.Stats.PrefetchUseful)
	}
}

func TestPrefetchLateMerge(t *testing.T) {
	c := newCache(testConfig(4096, 4))
	m := &fakeMemory{latency: 100}
	c.SetLower(m)

	pf := mem.NewRequest(mem.ReqPrefetch, 0x4000, 0, 0, 0)
	c.TryPrefetch(pf)
	tick(c, 3) // let the prefetch reach the MSHR
	tick(c, 4)
	tick(c, 5)
	if !c.InFlight(0x4000) {
		t.Fatal("prefetch not in flight")
	}
	var d uint64
	c.TryEnqueue(newLoad(0x4000, 5, &d))
	run(c, m, func() bool { return d != 0 }, 400)
	if c.Stats.PrefetchLate != 1 {
		t.Errorf("late = %d, want 1; stats %+v", c.Stats.PrefetchLate, c.Stats)
	}
	if c.Stats.DemandMerges != 1 {
		t.Errorf("merges = %d, want 1", c.Stats.DemandMerges)
	}
}

func TestPrefetchFilteredWhenResident(t *testing.T) {
	c := newCache(testConfig(4096, 4))
	m := &fakeMemory{latency: 10}
	c.SetLower(m)
	var d uint64
	c.TryEnqueue(newLoad(0x5000, 1, &d))
	run(c, m, func() bool { return d != 0 }, 100)

	pf := mem.NewRequest(mem.ReqPrefetch, 0x5000, 0, 0, 0)
	if !c.TryPrefetch(pf) {
		t.Fatal("filtered prefetch should report accepted")
	}
	if c.Stats.PrefetchDropped != 1 || c.Stats.PrefetchIssued != 0 {
		t.Errorf("stats %+v", c.Stats)
	}
	if m.Reads != 1 {
		t.Errorf("memory reads = %d, want 1", m.Reads)
	}
}

func TestPrefetchEvictedUnused(t *testing.T) {
	cfg := testConfig(mem.LineSize, 1) // single line cache
	c := newCache(cfg)
	m := &fakeMemory{latency: 5}
	c.SetLower(m)

	pf := mem.NewRequest(mem.ReqPrefetch, 0x0, 0, 0, 0)
	c.TryPrefetch(pf)
	run(c, m, func() bool { return c.Lookup(0x0) }, 100)

	var d uint64
	c.TryEnqueue(newLoad(0x1000, 1, &d)) // maps to the same (only) set
	run(c, m, func() bool { return d != 0 }, 100)
	if c.Stats.PrefetchEvicted != 1 {
		t.Errorf("evicted-unused = %d, want 1; stats %+v", c.Stats.PrefetchEvicted, c.Stats)
	}
}

func TestOnAccessHook(t *testing.T) {
	c := newCache(testConfig(4096, 4))
	m := &fakeMemory{latency: 5}
	c.SetLower(m)
	var events []AccessInfo
	c.OnAccess = func(ev AccessInfo) { events = append(events, ev) }

	var d uint64
	r := mem.NewRequest(mem.ReqLoad, 0x6000, 77, 2, 0)
	r.RegionID = 3
	r.StructFlag = true
	r.Done = func(cy uint64) { d = cy }
	c.TryEnqueue(r)
	run(c, m, func() bool { return d != 0 }, 100)

	d = 0
	r2 := mem.NewRequest(mem.ReqLoad, 0x6000, 77, 2, 0)
	r2.Done = func(cy uint64) { d = cy }
	c.TryEnqueue(r2)
	run(c, m, func() bool { return d != 0 }, 100)

	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if events[0].Hit || !events[1].Hit {
		t.Errorf("hit flags: %v %v", events[0].Hit, events[1].Hit)
	}
	if events[0].PC != 77 || events[0].Core != 2 || events[0].RegionID != 3 || !events[0].StructFlag {
		t.Errorf("miss event fields: %+v", events[0])
	}
}

func TestQueueBackpressure(t *testing.T) {
	cfg := testConfig(4096, 4)
	cfg.ReadQ = 2
	c := newCache(cfg)
	m := &fakeMemory{latency: 500}
	c.SetLower(m)

	var d [3]uint64
	ok0 := c.TryEnqueue(newLoad(0x100, 1, &d[0]))
	ok1 := c.TryEnqueue(newLoad(0x200, 1, &d[1]))
	ok2 := c.TryEnqueue(newLoad(0x300, 1, &d[2]))
	if !ok0 || !ok1 || ok2 {
		t.Errorf("enqueue results %v %v %v, want true true false", ok0, ok1, ok2)
	}
}

func TestMSHRStallPreservesRequest(t *testing.T) {
	cfg := testConfig(1<<16, 4)
	cfg.MSHRs = 2
	c := newCache(cfg)
	m := &fakeMemory{latency: 50}
	c.SetLower(m)

	var d [4]uint64
	for i := range d {
		c.TryEnqueue(newLoad(mem.Addr(0x1000*(i+1)), uint64(i), &d[i]))
	}
	run(c, m, func() bool {
		for i := range d {
			if d[i] == 0 {
				return false
			}
		}
		return true
	}, 1000)
	for i := range d {
		if d[i] == 0 {
			t.Fatalf("load %d lost during MSHR stall", i)
		}
	}
	if c.Stats.DemandMisses != 4 {
		t.Errorf("misses = %d, want 4", c.Stats.DemandMisses)
	}
	if m.Reads != 4 {
		t.Errorf("memory reads = %d, want 4", m.Reads)
	}
}

func TestLowerQueueFullRetries(t *testing.T) {
	cfg := testConfig(1<<16, 4)
	c := newCache(cfg)
	m := &fakeMemory{latency: 20, capacity: 1}
	c.SetLower(m)

	var d [3]uint64
	for i := range d {
		c.TryEnqueue(newLoad(mem.Addr(0x2000*(i+1)), uint64(i), &d[i]))
	}
	run(c, m, func() bool { return d[0] != 0 && d[1] != 0 && d[2] != 0 }, 1000)
	for i := range d {
		if d[i] == 0 {
			t.Fatalf("load %d never completed behind a full lower queue", i)
		}
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{DemandMisses: 30}
	if got := s.MPKI(3000); got != 10 {
		t.Errorf("MPKI = %v, want 10", got)
	}
	if got := s.MPKI(0); got != 0 {
		t.Errorf("MPKI(0) = %v", got)
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted an invalid config")
		}
	}()
	New(Config{Name: "bad"})
}

func TestSetsComputation(t *testing.T) {
	cfg := Config{SizeBytes: 256 * 1024, Ways: 8}
	if got := cfg.Sets(); got != 512 {
		t.Errorf("Sets() = %d, want 512", got)
	}
}
