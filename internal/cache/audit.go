package cache

import (
	"fmt"
	"sort"

	"rnrsim/internal/mem"
)

// Audit hooks. The shapes (report func(law string) and mix func(uint64))
// are chosen so this package needs no audit import; internal/sim adapts
// them onto the audit.Checker and audit.Hash.

// AuditInvariants validates the cache's conservation laws and structural
// bounds, reporting each violated law.
func (c *Cache) AuditInvariants(report func(law string)) {
	// Input-queue bounds. The write queue is exempt: evictions push
	// retry writebacks into the cache's own writeQ past the cap by
	// design (see evict), so only read/prefetch caps are laws.
	if n := c.readQ.len(); n > c.cfg.ReadQ {
		report(fmt.Sprintf("readQ occupancy %d exceeds capacity %d", n, c.cfg.ReadQ))
	}
	if n := c.prefQ.len(); n > c.cfg.PrefQ {
		report(fmt.Sprintf("prefQ occupancy %d exceeds capacity %d", n, c.cfg.PrefQ))
	}
	if n := len(c.mshrs); n > c.cfg.MSHRs {
		report(fmt.Sprintf("MSHR occupancy %d exceeds capacity %d", n, c.cfg.MSHRs))
	}

	// Conservation: every allocated MSHR has either filled (counted in
	// MissServiceCnt by fill) or is still in flight. A leak on either
	// side breaks requests-in-flight = issued - completed.
	if c.mshrAllocs != c.Stats.MissServiceCnt+uint64(len(c.mshrs)) {
		report(fmt.Sprintf("MSHR conservation: %d allocated != %d filled + %d in flight",
			c.mshrAllocs, c.Stats.MissServiceCnt, len(c.mshrs)))
	}

	// Demand accounting: a structural stall rolls DemandAccesses back
	// before requeueing, so at tick boundaries every counted access is
	// exactly one of hit, true miss or MSHR merge.
	if s := &c.Stats; s.DemandHits+s.DemandMisses+s.DemandMerges != s.DemandAccesses {
		report(fmt.Sprintf("demand accounting: hits %d + misses %d + merges %d != accesses %d",
			s.DemandHits, s.DemandMisses, s.DemandMerges, s.DemandAccesses))
	}

	// MSHR table integrity, including the line index mirroring the
	// active list slot for slot.
	if len(c.mshrLines) != len(c.mshrs) {
		report(fmt.Sprintf("MSHR line index holds %d lines for %d MSHRs", len(c.mshrLines), len(c.mshrs)))
	}
	seen := make(map[mem.Addr]bool, len(c.mshrs))
	for i, m := range c.mshrs {
		if i < len(c.mshrLines) && c.mshrLines[i] != m.line {
			report(fmt.Sprintf("MSHR line index slot %d holds %#x, MSHR tracks %#x",
				i, uint64(c.mshrLines[i]), uint64(m.line)))
		}
		if seen[m.line] {
			report(fmt.Sprintf("MSHR table holds line %#x twice", uint64(m.line)))
		}
		seen[m.line] = true
		if m.child == nil {
			report(fmt.Sprintf("MSHR %#x has no child request", uint64(m.line)))
		}
	}
	for _, m := range c.unsent {
		if m.sent {
			report(fmt.Sprintf("unsent list holds already-sent MSHR %#x", uint64(m.line)))
		}
		if c.findMSHR(m.line) == nil {
			report(fmt.Sprintf("unsent MSHR %#x missing from MSHR table", uint64(m.line)))
		}
	}

	auditRing("readQ", &c.readQ, report)
	auditRing("prefQ", &c.prefQ, report)
	auditRing("writeQ", &c.writeQ, report)
}

// auditRing checks ring-deque structural sanity: occupancy within the
// backing array, every occupied slot holding a request, every free slot
// zeroed (popFront zeroes the vacated slot; grow compacts to a fresh
// array), and head inside the buffer.
func auditRing(name string, q *reqRing, report func(law string)) {
	if q.n < 0 || q.n > len(q.buf) {
		report(fmt.Sprintf("%s ring: occupancy %d outside backing array %d", name, q.n, len(q.buf)))
		return
	}
	if len(q.buf) > 0 && (q.head < 0 || q.head >= len(q.buf)) {
		report(fmt.Sprintf("%s ring: head %d outside backing array %d", name, q.head, len(q.buf)))
		return
	}
	occupied := make(map[int]bool, q.n)
	for i := 0; i < q.n; i++ {
		idx := q.head + i
		if idx >= len(q.buf) {
			idx -= len(q.buf)
		}
		occupied[idx] = true
		if q.buf[idx].req == nil {
			report(fmt.Sprintf("%s ring: occupied slot %d holds nil request", name, idx))
		}
	}
	for idx := range q.buf {
		if !occupied[idx] && q.buf[idx] != (queued{}) {
			report(fmt.Sprintf("%s ring: free slot %d not zeroed", name, idx))
		}
	}
}

// AuditDemandHolds returns the number of demand requests the cache is
// currently holding on behalf of the level above: demand entries in the
// read queue plus demand waiters parked on MSHRs. For a private L1 this
// equals the core's LSQ occupancy (hits complete synchronously inside
// the same Tick; the core's not-yet-enqueued pendingReq is counted on
// neither side).
func (c *Cache) AuditDemandHolds() int {
	n := 0
	for i := 0; i < c.readQ.n; i++ {
		idx := c.readQ.head + i
		if idx >= len(c.readQ.buf) {
			idx -= len(c.readQ.buf)
		}
		if c.readQ.buf[idx].req.Type.IsDemand() {
			n++
		}
	}
	for _, m := range c.mshrs {
		for _, w := range m.waiters {
			if w.Type.IsDemand() {
				n++
			}
		}
	}
	return n
}

// HashState folds the cache's complete architectural state — tag array
// with dirty/prefetched/LRU words, input queues, MSHR table (sorted by
// line so Go's randomized map order cannot perturb the digest) and all
// statistics — into the caller's hasher.
func (c *Cache) HashState(mix func(uint64)) {
	for i := range c.sets {
		l := &c.sets[i]
		mix(uint64(l.tag))
		mix(boolWord(l.dirty)<<1 | boolWord(l.prefetched))
		mix(l.lastUse)
	}
	hashRing(&c.readQ, mix)
	hashRing(&c.prefQ, mix)
	hashRing(&c.writeQ, mix)

	entries := make([]*mshr, len(c.mshrs))
	copy(entries, c.mshrs)
	sort.Slice(entries, func(i, j int) bool { return entries[i].line < entries[j].line })
	mix(uint64(len(entries)))
	for _, m := range entries {
		mix(uint64(m.line))
		mix(m.allocAt)
		mix(boolWord(m.prefetch)<<2 | boolWord(m.demanded)<<1 | boolWord(m.sent))
		mix(uint64(len(m.waiters)))
		for _, w := range m.waiters {
			hashRequest(w, mix)
		}
	}
	mix(uint64(len(c.unsent)))

	s := &c.Stats
	mix(c.mshrAllocs)
	for _, v := range []uint64{
		s.DemandAccesses, s.DemandHits, s.DemandMisses, s.DemandMerges,
		s.PrefetchIssued, s.PrefetchDropped, s.PrefetchFills, s.PrefetchFillsDone,
		s.PrefetchUseful, s.PrefetchLate, s.PrefetchEvicted,
		s.Writebacks, s.Evictions, s.MissServiceSum, s.MissServiceCnt,
	} {
		mix(v)
	}
}

func hashRing(q *reqRing, mix func(uint64)) {
	mix(uint64(q.n))
	for i := 0; i < q.n; i++ {
		idx := q.head + i
		if idx >= len(q.buf) {
			idx -= len(q.buf)
		}
		e := &q.buf[idx]
		mix(e.ready)
		hashRequest(e.req, mix)
	}
}

func hashRequest(r *mem.Request, mix func(uint64)) {
	mix(uint64(r.Type))
	mix(uint64(r.Addr))
	mix(uint64(r.Line))
	mix(r.PC)
	mix(uint64(int64(r.Core)))
	mix(uint64(int64(r.RegionID)))
	mix(boolWord(r.StructFlag))
	mix(r.Issue)
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
