package cache

import (
	"testing"

	"rnrsim/internal/mem"
)

// Occupancy reports queue and MSHR occupancy.
func (c *Cache) Occupancy() (readQ, prefQ, writeQ, mshrs int) {
	return c.readQ.len(), c.prefQ.len(), c.writeQ.len(), len(c.mshrs)
}

// twoLevel builds an L1 -> L2 -> fakeMemory stack for hierarchy tests.
func twoLevel(l1Size, l2Size uint64, lat uint64) (*Cache, *Cache, *fakeMemory) {
	l2 := newCache(Config{
		Name: "L2", SizeBytes: l2Size, Ways: 4, Latency: 4,
		MSHRs: 8, ReadQ: 16, PrefQ: 16, WriteQ: 16, Bandwidth: 2,
	})
	l1 := newCache(Config{
		Name: "L1", SizeBytes: l1Size, Ways: 2, Latency: 2,
		MSHRs: 4, ReadQ: 16, PrefQ: 4, WriteQ: 16, Bandwidth: 2,
	})
	m := &fakeMemory{latency: lat}
	l2.SetLower(m)
	l1.SetLower(l2)
	bind(&mem.Clock{}, l1, l2)
	return l1, l2, m
}

func drive2(l1, l2 *Cache, m *fakeMemory, budget int, until func() bool) {
	var now uint64
	for i := 0; i < budget; i++ {
		now++
		tick(l1, now)
		tick(l2, now)
		m.Tick(now)
		if until() {
			return
		}
	}
}

func TestTwoLevelMissFillsBoth(t *testing.T) {
	l1, l2, m := twoLevel(256, 4096, 30)
	var done uint64
	l1.TryEnqueue(newLoad(0x4000, 1, &done))
	drive2(l1, l2, m, 300, func() bool { return done != 0 })
	if done == 0 {
		t.Fatal("load never completed")
	}
	if !l1.Lookup(0x4000) || !l2.Lookup(0x4000) {
		t.Error("line not installed at both levels")
	}
	if m.Reads != 1 {
		t.Errorf("memory reads = %d", m.Reads)
	}
	// A second access must be an L1 hit with no L2 traffic.
	l2Accesses := l2.Stats.DemandAccesses
	done = 0
	l1.TryEnqueue(newLoad(0x4000, 1, &done))
	drive2(l1, l2, m, 100, func() bool { return done != 0 })
	if l2.Stats.DemandAccesses != l2Accesses {
		t.Error("L1 hit leaked an access to L2")
	}
}

func TestDirtyEvictionPropagatesThroughHierarchy(t *testing.T) {
	// Store into a line at L1, then thrash L1 so the dirty line descends
	// to L2; thrash L2 so it descends to memory.
	l1, l2, m := twoLevel(128, 256, 10) // L1: 2 lines, L2: 4 lines
	var done uint64
	st := mem.NewRequest(mem.ReqStore, 0x0, 1, 0, 0)
	st.Done = func(cy uint64) { done = cy }
	l1.TryEnqueue(st)
	drive2(l1, l2, m, 200, func() bool { return done != 0 })

	// Fill both caches with conflicting lines.
	for i := 1; i <= 8; i++ {
		var d uint64
		l1.TryEnqueue(newLoad(mem.Addr(i*0x1000), uint64(i), &d))
		drive2(l1, l2, m, 400, func() bool { return d != 0 })
	}
	drive2(l1, l2, m, 500, func() bool { return m.Writes > 0 })
	if m.Writes == 0 {
		t.Error("dirty line never reached memory through both levels")
	}
}

func TestWritebackUpdatesResidentLowerLine(t *testing.T) {
	l1, l2, m := twoLevel(128, 4096, 10)
	// Load a line so it is resident in L2, dirty it at L1, evict from L1:
	// the writeback must mark the L2 copy dirty, not go to memory.
	var done uint64
	st := mem.NewRequest(mem.ReqStore, 0x40, 1, 0, 0)
	st.Done = func(cy uint64) { done = cy }
	l1.TryEnqueue(st)
	drive2(l1, l2, m, 200, func() bool { return done != 0 })
	for i := 1; i <= 4; i++ { // evict 0x40 from the 2-line L1
		var d uint64
		l1.TryEnqueue(newLoad(mem.Addr(0x40+i*128), uint64(i), &d))
		drive2(l1, l2, m, 300, func() bool { return d != 0 })
	}
	drive2(l1, l2, m, 100, func() bool { return false })
	if m.Writes != 0 {
		t.Errorf("writeback bypassed a resident L2 line to memory (%d writes)", m.Writes)
	}
	if l2.Stats.Writebacks != 0 && m.Writes != 0 {
		t.Error("inconsistent writeback accounting")
	}
}

func TestOnEvictHookReportsPrefetchState(t *testing.T) {
	c := newCache(testConfig(mem.LineSize*2, 2)) // one set, two ways
	m := &fakeMemory{latency: 5}
	c.SetLower(m)
	type evict struct {
		line   mem.Addr
		unused bool
	}
	var evicts []evict
	c.OnEvict = func(line mem.Addr, unused bool, cycle uint64) {
		evicts = append(evicts, evict{line, unused})
	}
	// Prefetch a line, never touch it, then force two demand fills.
	c.TryPrefetch(mem.NewRequest(mem.ReqPrefetch, 0x0, 0, 0, 0))
	run(c, m, func() bool { return c.Lookup(0x0) }, 100)
	for i := 1; i <= 2; i++ {
		var d uint64
		c.TryEnqueue(newLoad(mem.Addr(i*0x1000), uint64(i), &d))
		run(c, m, func() bool { return d != 0 }, 200)
	}
	found := false
	for _, e := range evicts {
		if e.line == 0x0 && e.unused {
			found = true
		}
	}
	if !found {
		t.Errorf("unused-prefetch eviction not reported: %+v", evicts)
	}
}

func TestPrefetchBandwidthIndependentOfDemand(t *testing.T) {
	// With a saturated demand queue, prefetches must still drain at
	// PrefBandwidth per cycle rather than starving.
	cfg := testConfig(1<<16, 4)
	cfg.Bandwidth = 1
	cfg.PrefBandwidth = 1
	cfg.MSHRs = 16
	c := newCache(cfg)
	m := &fakeMemory{latency: 5}
	c.SetLower(m)

	var sink [8]uint64
	for i := range sink {
		c.TryEnqueue(newLoad(mem.Addr(0x100*(i+1)), uint64(i), &sink[i]))
	}
	for i := 0; i < 4; i++ {
		c.TryPrefetch(mem.NewRequest(mem.ReqPrefetch, mem.Addr(0x9000+i*0x40), 0, 0, 0))
	}
	run(c, m, func() bool { return false }, 50)
	if c.Stats.PrefetchFills == 0 {
		t.Error("prefetches starved behind demand traffic")
	}
}

func TestMergedDemandCountsOnce(t *testing.T) {
	c := newCache(testConfig(4096, 4))
	m := &fakeMemory{latency: 60}
	c.SetLower(m)
	var d [3]uint64
	for i := range d {
		c.TryEnqueue(newLoad(0x2000, uint64(i), &d[i]))
	}
	run(c, m, func() bool { return d[0] != 0 && d[1] != 0 && d[2] != 0 }, 400)
	if c.Stats.DemandMisses != 1 || c.Stats.DemandMerges != 2 {
		t.Errorf("misses=%d merges=%d, want 1/2", c.Stats.DemandMisses, c.Stats.DemandMerges)
	}
	if c.Stats.MissServiceCnt != 1 {
		t.Errorf("miss service count = %d, want 1 fill", c.Stats.MissServiceCnt)
	}
}

func TestOccupancyReporting(t *testing.T) {
	c := newCache(testConfig(4096, 4))
	m := &fakeMemory{latency: 500}
	c.SetLower(m)
	var d uint64
	c.TryEnqueue(newLoad(0x100, 1, &d))
	tick(c, 3)
	r, p, w, ms := c.Occupancy()
	if r != 0 || p != 0 || w != 0 || ms != 1 {
		t.Errorf("occupancy after miss = r%d p%d w%d m%d, want MSHR 1", r, p, w, ms)
	}
}
