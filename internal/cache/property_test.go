package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rnrsim/internal/mem"
)

// TestNoRequestLostProperty drives random access mixes through a two-level
// hierarchy and checks the fundamental liveness invariant: every request
// completes exactly once, regardless of queue pressure, MSHR contention,
// merges and evictions.
func TestNoRequestLostProperty(t *testing.T) {
	prop := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l1, l2, m := twoLevel(256, 1024, uint64(rng.Intn(80)+5))
		n := int(nOps)%200 + 1

		completions := 0
		double := false
		issued := 0
		for cycle := uint64(1); cycle < 100000; cycle++ {
			if issued < n && rng.Intn(3) == 0 {
				typ := mem.ReqLoad
				if rng.Intn(4) == 0 {
					typ = mem.ReqStore
				}
				addr := mem.Addr(rng.Intn(64)) * mem.LineSize * mem.Addr(rng.Intn(8)+1)
				r := mem.NewRequest(typ, addr, uint64(rng.Intn(16)), 0, cycle)
				seen := false
				r.Done = func(uint64) {
					if seen {
						double = true
					}
					seen = true
					completions++
				}
				if l1.TryEnqueue(r) {
					issued++
				}
			}
			l1.Tick(cycle)
			l2.Tick(cycle)
			m.Tick(cycle)
			if issued == n && completions == n &&
				l1.Pending() == 0 && l2.Pending() == 0 {
				break
			}
		}
		return completions == n && !double
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPrefetchNeverBlocksDemandProperty mixes aggressive prefetching with
// demand traffic: demands must all complete even when the prefetcher
// floods the queues.
func TestPrefetchNeverBlocksDemandProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(testConfig(2048, 4))
		m := &fakeMemory{latency: uint64(rng.Intn(100) + 20)}
		c.SetLower(m)

		const n = 40
		completions := 0
		issued := 0
		for cycle := uint64(1); cycle < 100000; cycle++ {
			// Flood with prefetches every cycle.
			for i := 0; i < 4; i++ {
				pf := mem.NewRequest(mem.ReqPrefetch, mem.Addr(rng.Intn(4096))*mem.LineSize, 0, 0, cycle)
				c.TryPrefetch(pf)
			}
			if issued < n && cycle%5 == 0 {
				r := mem.NewRequest(mem.ReqLoad, mem.Addr(rng.Intn(512))*mem.LineSize, 1, 0, cycle)
				r.Done = func(uint64) { completions++ }
				if c.TryEnqueue(r) {
					issued++
				}
			}
			c.Tick(cycle)
			m.Tick(cycle)
			if issued == n && completions == n {
				return true
			}
		}
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestLRUVictimProperty: after any access sequence, a hit on every line of
// a set followed by one miss must evict the line whose hit was earliest.
func TestLRUVictimProperty(t *testing.T) {
	cfg := testConfig(mem.LineSize*4, 4) // one set, four ways
	c := New(cfg)
	m := &fakeMemory{latency: 3}
	c.SetLower(m)

	lines := []mem.Addr{0x0, 0x1000, 0x2000, 0x3000} // all map to set 0
	for _, l := range lines {
		var d uint64
		c.TryEnqueue(newLoad(l, 1, &d))
		run(c, m, func() bool { return d != 0 }, 200)
	}
	// Touch in a known order: 0x1000 becomes LRU.
	for _, l := range []mem.Addr{0x1000, 0x0, 0x2000, 0x3000} {
		var d uint64
		c.TryEnqueue(newLoad(l, 2, &d))
		run(c, m, func() bool { return d != 0 }, 200)
	}
	var d uint64
	c.TryEnqueue(newLoad(0x4000, 3, &d))
	run(c, m, func() bool { return d != 0 }, 200)
	if c.Lookup(0x1000) {
		t.Error("LRU line survived the conflict miss")
	}
	for _, l := range []mem.Addr{0x0, 0x2000, 0x3000, 0x4000} {
		if !c.Lookup(l) {
			t.Errorf("line %#x wrongly evicted", uint64(l))
		}
	}
}

func TestInvalidateAllEmptiesCache(t *testing.T) {
	c := New(testConfig(4096, 4))
	m := &fakeMemory{latency: 3}
	c.SetLower(m)
	for i := 0; i < 10; i++ {
		var d uint64
		c.TryEnqueue(newLoad(mem.Addr(i)*mem.LineSize, 1, &d))
		run(c, m, func() bool { return d != 0 }, 100)
	}
	c.InvalidateAll()
	for i := 0; i < 10; i++ {
		if c.Lookup(mem.Addr(i) * mem.LineSize) {
			t.Fatalf("line %d survived InvalidateAll", i)
		}
	}
	// The cache must remain fully functional afterwards.
	var d uint64
	c.TryEnqueue(newLoad(0x0, 1, &d))
	run(c, m, func() bool { return d != 0 }, 100)
	if d == 0 || !c.Lookup(0x0) {
		t.Error("cache broken after InvalidateAll")
	}
}

// shuffledMemory completes one random in-flight read per cycle, so MSHRs
// fill out of allocation order and removeMSHR swap-deletes from the
// middle of the active list.
type shuffledMemory struct {
	rng      *rand.Rand
	clock    uint64
	inFlight []*mem.Request
}

func (s *shuffledMemory) TryEnqueue(r *mem.Request) bool {
	if r.Type == mem.ReqWriteback {
		r.Complete(s.clock)
		return true
	}
	s.inFlight = append(s.inFlight, r)
	return true
}

func (s *shuffledMemory) Tick(now uint64) {
	s.clock = now
	if len(s.inFlight) == 0 || s.rng.Intn(2) == 0 {
		return
	}
	i := s.rng.Intn(len(s.inFlight))
	r := s.inFlight[i]
	s.inFlight = append(s.inFlight[:i], s.inFlight[i+1:]...)
	r.Complete(now)
}

// TestMSHRLineIndexMirrorsActiveList: under out-of-order fills, merges
// and MSHR exhaustion the line index stays slot-for-slot equal to the
// active MSHRs' lines, and findMSHR agrees with a scan of the MSHRs.
func TestMSHRLineIndexMirrorsActiveList(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := &shuffledMemory{rng: rng}
	c := New(testConfig(4096, 4))
	c.SetLower(m)
	for cycle := uint64(1); cycle < 20000; cycle++ {
		if rng.Intn(2) == 0 {
			line := mem.Addr(rng.Intn(48)) * mem.LineSize
			c.TryEnqueue(mem.NewRequest(mem.ReqLoad, line, 0, 0, cycle))
		}
		c.Tick(cycle)
		m.Tick(cycle)
		if len(c.mshrLines) != len(c.mshrs) {
			t.Fatalf("cycle %d: %d lines for %d MSHRs", cycle, len(c.mshrLines), len(c.mshrs))
		}
		for i, ms := range c.mshrs {
			if c.mshrLines[i] != ms.line {
				t.Fatalf("cycle %d: slot %d line %#x, MSHR %#x", cycle, i, uint64(c.mshrLines[i]), uint64(ms.line))
			}
			if c.findMSHR(ms.line) != ms {
				t.Fatalf("cycle %d: findMSHR(%#x) missed its MSHR", cycle, uint64(ms.line))
			}
		}
		var laws []string
		c.AuditInvariants(func(law string) { laws = append(laws, law) })
		if len(laws) > 0 {
			t.Fatalf("cycle %d: audit: %v", cycle, laws)
		}
	}
	if c.Stats.MissServiceCnt == 0 {
		t.Fatal("no MSHR ever filled; the test exercised nothing")
	}
}
