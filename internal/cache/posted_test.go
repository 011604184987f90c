package cache

import (
	"strings"
	"testing"

	"rnrsim/internal/dram"
	"rnrsim/internal/mem"
)

// queuedLines lists the lines of a ring's entries, oldest first, and
// fails if an entry still points at the issuer's scratch request.
func queuedLines(t *testing.T, q *reqRing, scratch *mem.Request) []mem.Addr {
	t.Helper()
	var lines []mem.Addr
	for i := 0; i < q.n; i++ {
		e := q.buf[(q.head+i)%len(q.buf)]
		if e.req == scratch {
			t.Fatalf("entry %d aliases the issuer's scratch request", i)
		}
		if !owned(e.req) {
			t.Fatalf("entry %d holds a request with Done, not a posted copy", i)
		}
		lines = append(lines, e.req.Line)
	}
	return lines
}

func auditLaws(c *Cache) []string {
	var laws []string
	c.AuditInvariants(func(law string) { laws = append(laws, law) })
	return laws
}

// TestPostedRequestsAreCopied: an issuer may refill one scratch request
// between posts; each accepted prefetch and writeback keeps its own
// fields in the cache's queues.
func TestPostedRequestsAreCopied(t *testing.T) {
	c := newCache(testConfig(4096, 4))
	c.SetLower(&fakeMemory{latency: 5})
	var scratch mem.Request

	scratch.Init(mem.ReqPrefetch, 0x1000, 0, 1, 0)
	c.TryPrefetch(&scratch)
	scratch.Init(mem.ReqPrefetch, 0x2040, 0, 2, 0)
	c.TryPrefetch(&scratch)
	scratch.Init(mem.ReqWriteback, 0x3000, 0, -1, 0)
	c.TryEnqueue(&scratch)
	scratch.Init(mem.ReqWriteback, 0x4000, 0, -1, 0)
	c.TryEnqueue(&scratch)
	scratch.Init(mem.ReqLoad, 0x9999, 0, 3, 0) // overwrite once more

	if got := queuedLines(t, &c.prefQ, &scratch); len(got) != 2 || got[0] != 0x1000 || got[1] != 0x2040 {
		t.Errorf("prefetch queue lines = %#x, want [0x1000 0x2040]", got)
	}
	if got := queuedLines(t, &c.writeQ, &scratch); len(got) != 2 || got[0] != 0x3000 || got[1] != 0x4000 {
		t.Errorf("write queue lines = %#x, want [0x3000 0x4000]", got)
	}
	if c.prefQ.buf[c.prefQ.head].req.Core != 1 {
		t.Errorf("first prefetch copy carries core %d, want 1", c.prefQ.buf[c.prefQ.head].req.Core)
	}
	if laws := auditLaws(c); len(laws) > 0 {
		t.Fatalf("audit: %v", laws)
	}
	m := c.lower.(*fakeMemory)
	run(c, m, func() bool { return c.Pending() == 0 }, 200)
	if !c.Lookup(0x1000) || !c.Lookup(0x2040) {
		t.Error("a prefetch copy lost its line: not both prefetched lines are resident")
	}
	if c.posted.Live() != 0 {
		t.Errorf("%d posted copies still live after the queues drained", c.posted.Live())
	}
}

// TestPostedDoubleReleaseIsReported: the ownership law counts pool copies
// against owned entries, so releasing an already released copy breaks it.
func TestPostedDoubleReleaseIsReported(t *testing.T) {
	c := newCache(testConfig(4096, 4))
	m := &fakeMemory{latency: 5}
	c.SetLower(m)
	var scratch mem.Request
	scratch.Init(mem.ReqPrefetch, 0x1000, 0, 0, 0)
	c.TryPrefetch(&scratch)
	cp := c.prefQ.front().req
	run(c, m, func() bool { return c.Pending() == 0 }, 200)
	if laws := auditLaws(c); len(laws) > 0 {
		t.Fatalf("audit after a clean run: %v", laws)
	}
	c.posted.Release(cp) // the cache already released it once
	laws := auditLaws(c)
	if len(laws) != 1 || !strings.Contains(laws[0], "posted-request ownership") {
		t.Fatalf("double release reported as %v, want one ownership violation", laws)
	}
}

// TestDirtyEvictionAllocatesNothing: once warm, a store that evicts the
// previous dirty line, whose writeback DRAM copies and retires, allocates
// nothing.
func TestDirtyEvictionAllocatesNothing(t *testing.T) {
	cfg := testConfig(mem.LineSize, 1) // one line: every store evicts the last
	c := newCache(cfg)
	mc := dram.New(dram.Default())
	c.SetLower(mc)
	mc.BindClock(c.clk, 1)
	var st mem.Request
	done := false
	complete := func(uint64) { done = true }
	var now uint64
	line := mem.Addr(0)
	round := func() {
		line += 0x2040
		st.Init(mem.ReqStore, line, 1, 0, now)
		st.Done = complete
		done = false
		if !c.TryEnqueue(&st) {
			t.Fatal("store rejected")
		}
		for i := 0; i < 1000 && (!done || c.Pending() > 0 || mc.Pending() > 0); i++ {
			now++
			tick(c, now)
			c.clk.Cursor = 2
			mc.Tick(now)
		}
	}
	// One measured run of many rounds counts allocations exactly, so an
	// arena that carves a chunk every few dozen rounds cannot average
	// down to zero.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 500; i++ {
			round()
		}
	})
	if allocs != 0 {
		t.Errorf("dirty eviction allocates %.0f objects over 500 stores, want 0", allocs)
	}
	if mc.Stats.Writebacks < 999 {
		t.Errorf("DRAM retired %d writebacks: the loop did not exercise dirty evictions", mc.Stats.Writebacks)
	}
}
