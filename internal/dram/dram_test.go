package dram

import (
	"testing"

	"rnrsim/internal/mem"
)

// WriteQLen returns the current write-queue occupancy.
func (c *Controller) WriteQLen() int { return len(c.writeQ) }

// newController builds a controller on a clock of its own, at slot 0
// with the walk past it, so it reads the clock's cycle.
func newController(cfg Config) *Controller {
	c := New(cfg)
	c.BindClock(&mem.Clock{Cursor: 1}, 0)
	return c
}

// tick ticks c at cycle now, moving its clock there first.
func tick(c *Controller, now uint64) {
	c.clk.Cycle = now
	c.Tick(now)
}

func testConfig() Config {
	c := Default()
	c.MaxInFlight = 4
	return c
}

func load(addr mem.Addr, done *uint64) *mem.Request {
	r := mem.NewRequest(mem.ReqLoad, addr, 0, 0, 0)
	r.Done = func(cy uint64) { *done = cy }
	return r
}

func drive(c *Controller, cycles int) {
	start := c.clk.Cycle
	for i := 1; i <= cycles; i++ {
		tick(c, start+uint64(i))
	}
}

func TestSingleReadLatency(t *testing.T) {
	c := newController(testConfig())
	var done uint64
	if !c.TryEnqueue(load(0x1000, &done)) {
		t.Fatal("enqueue failed")
	}
	drive(c, 500)
	if done == 0 {
		t.Fatal("read never completed")
	}
	cfg := testConfig()
	min := cfg.TRCD + cfg.TCAS + cfg.BurstCycles
	if done < min {
		t.Errorf("closed-row read completed at %d, want >= %d", done, min)
	}
	if done > min+20 {
		t.Errorf("idle read took %d cycles, want about %d", done, min)
	}
	if c.Stats.Reads != 1 || c.Stats.DemandReads != 1 {
		t.Errorf("stats %+v", c.Stats)
	}
}

func TestRowBufferHitIsFaster(t *testing.T) {
	c := newController(testConfig())
	var d1, d2 uint64
	c.TryEnqueue(load(0x0, &d1))
	drive(c, 300)
	c.TryEnqueue(load(0x40, &d2)) // same row, next line
	start := c.clk.Cycle
	drive(c, 300)
	if d2 == 0 {
		t.Fatal("second read never completed")
	}
	hitLat := d2 - start
	cfg := testConfig()
	if hitLat > cfg.TCAS+cfg.BurstCycles+5 {
		t.Errorf("row hit latency %d, want <= %d", hitLat, cfg.TCAS+cfg.BurstCycles)
	}
	if c.Stats.RowHits != 1 || c.Stats.RowMisses != 1 {
		t.Errorf("row stats %+v", c.Stats)
	}
}

func TestRowConflictIsSlower(t *testing.T) {
	c := newController(testConfig())
	cfg := testConfig()
	rowStride := mem.Addr(cfg.RowBytes * uint64(cfg.Banks)) // same bank, next row
	var d1, d2 uint64
	c.TryEnqueue(load(0x0, &d1))
	drive(c, 300)
	start := c.clk.Cycle
	c.TryEnqueue(load(rowStride, &d2))
	drive(c, 500)
	if d2 == 0 {
		t.Fatal("conflicting read never completed")
	}
	confLat := d2 - start
	min := cfg.TRP + cfg.TRCD + cfg.TCAS
	if confLat < min {
		t.Errorf("row conflict latency %d, want >= %d", confLat, min)
	}
}

func TestBankParallelismBeatsSameBank(t *testing.T) {
	cfg := testConfig()
	// Two reads to different banks should overlap; two to the same bank
	// (different rows) serialise on the bank.
	run := func(a, b mem.Addr) uint64 {
		c := newController(cfg)
		var d1, d2 uint64
		c.TryEnqueue(load(a, &d1))
		c.TryEnqueue(load(b, &d2))
		drive(c, 2000)
		if d1 == 0 || d2 == 0 {
			t.Fatal("reads never completed")
		}
		if d2 > d1 {
			return d2
		}
		return d1
	}
	diffBank := run(0, mem.Addr(cfg.RowBytes))                   // banks 0 and 1
	sameBank := run(0, mem.Addr(cfg.RowBytes*uint64(cfg.Banks))) // bank 0 rows 0,1
	if diffBank >= sameBank {
		t.Errorf("bank parallelism: different banks %d cycles, same bank %d", diffBank, sameBank)
	}
}

func TestDemandPriorityOverPrefetch(t *testing.T) {
	c := newController(testConfig())
	var pfDone, ldDone uint64
	pf := mem.NewRequest(mem.ReqPrefetch, 0x10000, 0, 0, 0)
	pf.Done = func(cy uint64) { pfDone = cy }
	// Enqueue prefetch first, then a demand to a different bank: both are
	// ready, the demand must be scheduled first.
	cfg := testConfig()
	c.TryEnqueue(pf)
	c.TryEnqueue(load(mem.Addr(cfg.RowBytes*3), &ldDone))
	drive(c, 1000)
	if pfDone == 0 || ldDone == 0 {
		t.Fatal("requests never completed")
	}
	if ldDone > pfDone {
		t.Errorf("demand finished at %d after prefetch at %d", ldDone, pfDone)
	}
	if c.Stats.PrefetchReads != 1 || c.Stats.DemandReads != 1 {
		t.Errorf("stats %+v", c.Stats)
	}
}

func TestWritesArePostedAndDrained(t *testing.T) {
	c := newController(testConfig())
	done := 0
	for i := 0; i < 10; i++ {
		wb := mem.NewRequest(mem.ReqWriteback, mem.Addr(i*0x40), 0, -1, 0)
		wb.Done = func(cy uint64) { done++ }
		if !c.TryEnqueue(wb) {
			t.Fatalf("write %d rejected", i)
		}
	}
	if done != 10 {
		t.Errorf("posted writes completed %d/10 immediately", done)
	}
	drive(c, 5000)
	if c.Stats.Writes != 10 {
		t.Errorf("drained %d writes, want 10", c.Stats.Writes)
	}
	if c.WriteQLen() != 0 {
		t.Errorf("write queue still has %d entries", c.WriteQLen())
	}
}

func TestWriteDrainWatermark(t *testing.T) {
	cfg := testConfig()
	c := newController(cfg)
	// Fill the write queue past the high watermark while reads keep coming;
	// the drain must still make progress.
	high := int(float64(cfg.WriteQ)*cfg.DrainHigh) + 1
	for i := 0; i < high; i++ {
		wb := mem.NewRequest(mem.ReqWriteback, mem.Addr(i)*0x40, 0, -1, 0)
		c.TryEnqueue(wb)
	}
	var dones [8]uint64
	for i := range dones {
		c.TryEnqueue(load(mem.Addr(0x100000+i*0x40), &dones[i]))
	}
	drive(c, 20000)
	if c.WriteQLen() > int(float64(cfg.WriteQ)*cfg.DrainLow) {
		t.Errorf("write queue not drained below low watermark: %d", c.WriteQLen())
	}
	for i, d := range dones {
		if d == 0 {
			t.Errorf("read %d starved during drain", i)
		}
	}
}

func TestReadQueueBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.ReadQ = 4
	c := newController(cfg)
	var sink uint64
	for i := 0; i < 4; i++ {
		if !c.TryEnqueue(load(mem.Addr(i*0x40), &sink)) {
			t.Fatalf("read %d rejected below capacity", i)
		}
	}
	if c.TryEnqueue(load(0x9999, &sink)) {
		t.Error("read accepted above capacity")
	}
	if c.Stats.ReadQFullStall != 1 {
		t.Errorf("stall count %d", c.Stats.ReadQFullStall)
	}
}

func TestMetadataAccounting(t *testing.T) {
	c := newController(testConfig())
	var d uint64
	mr := mem.NewRequest(mem.ReqMetaRead, 0x40000, 0, 0, 0)
	mr.Done = func(cy uint64) { d = cy }
	c.TryEnqueue(mr)
	mw := mem.NewRequest(mem.ReqMetaWrite, 0x50000, 0, 0, 0)
	c.TryEnqueue(mw)
	drive(c, 2000)
	if d == 0 {
		t.Fatal("metadata read never completed")
	}
	if c.Stats.MetaReads != 1 || c.Stats.MetaWrites != 1 {
		t.Errorf("stats %+v", c.Stats)
	}
	if got := c.Stats.TotalTraffic(); got != 2 {
		t.Errorf("TotalTraffic = %d, want 2", got)
	}
}

func TestStreamingThroughput(t *testing.T) {
	// A sequential stream should be row-hit dominated and bus-bound:
	// N lines should take roughly N*BurstCycles once the pipe is warm.
	cfg := testConfig()
	c := newController(cfg)
	const n = 32
	var done [n]uint64
	next := 0
	for cycle := uint64(1); cycle < 50000; cycle++ {
		for next < n && c.TryEnqueue(load(mem.Addr(next*0x40), &done[next])) {
			next++
		}
		tick(c, cycle)
		if done[n-1] != 0 {
			break
		}
	}
	if done[n-1] == 0 {
		t.Fatal("stream never finished")
	}
	if c.Stats.RowHits < n-4 {
		t.Errorf("streaming row hits = %d/%d", c.Stats.RowHits, n)
	}
	total := done[n-1] - done[0]
	perLine := float64(total) / float64(n-1)
	if perLine > float64(cfg.BurstCycles)*2 {
		t.Errorf("streaming %f cycles/line, want near %d", perLine, cfg.BurstCycles)
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted an invalid config")
		}
	}()
	New(Config{Banks: 0})
}
