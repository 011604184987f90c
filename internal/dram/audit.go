package dram

import (
	"fmt"

	"rnrsim/internal/mem"
)

// Audit hooks. The shapes (report func(law string) and mix func(uint64))
// are chosen so this package needs no audit import; internal/sim adapts
// them onto the audit.Checker and audit.Hash.

// AuditInvariants validates the controller's conservation laws and
// structural bounds.
func (c *Controller) AuditInvariants(report func(law string)) {
	if n := len(c.readQ); n > c.cfg.ReadQ {
		report(fmt.Sprintf("readQ occupancy %d exceeds capacity %d", n, c.cfg.ReadQ))
	}
	if n := len(c.writeQ); n > c.cfg.WriteQ {
		report(fmt.Sprintf("writeQ occupancy %d exceeds capacity %d", n, c.cfg.WriteQ))
	}
	// Tick's guaranteed low-priority issue slot allows one transfer past
	// MaxInFlight, never more.
	if n := len(c.inService); n > c.cfg.MaxInFlight+1 {
		report(fmt.Sprintf("inService %d exceeds MaxInFlight+1 = %d", n, c.cfg.MaxInFlight+1))
	}

	// Conservation: every read accounted at issue either finished its
	// data transfer (doneReads) or is still in service. Writes are
	// posted at enqueue and never enter inService.
	if c.Stats.Reads != c.doneReads+uint64(len(c.inService)) {
		report(fmt.Sprintf("read conservation: %d issued != %d done + %d in service",
			c.Stats.Reads, c.doneReads, len(c.inService)))
	}

	// Traffic-class accounting: issue and account happen in the same
	// call, so the class splits always sum to the totals.
	s := &c.Stats
	if s.DemandReads+s.PrefetchReads+s.MetaReads != s.Reads {
		report(fmt.Sprintf("read classes: demand %d + prefetch %d + meta %d != reads %d",
			s.DemandReads, s.PrefetchReads, s.MetaReads, s.Reads))
	}
	if s.MetaWrites+s.Writebacks != s.Writes {
		report(fmt.Sprintf("write classes: meta %d + writeback %d != writes %d",
			s.MetaWrites, s.Writebacks, s.Writes))
	}
	if s.RowHits+s.RowMisses != s.Reads+s.Writes {
		report(fmt.Sprintf("row-buffer accounting: hits %d + misses %d != transfers %d",
			s.RowHits, s.RowMisses, s.Reads+s.Writes))
	}

	for i, p := range c.inService {
		if p.req == nil {
			report(fmt.Sprintf("inService[%d] holds nil request", i))
			continue
		}
		if p.req.Type == mem.ReqWriteback || p.req.Type == mem.ReqMetaWrite {
			report(fmt.Sprintf("inService[%d] holds posted write %s", i, p.req.Type))
		}
	}
	// The bank decoded at enqueue must still be the address decode's.
	for _, q := range [2][]queued{c.readQ, c.writeQ} {
		for i := range q {
			if want := c.bankOf(q[i].req.Line); int(q[i].bank) != want {
				report(fmt.Sprintf("queued line %#x carries bank %d, decode says %d",
					uint64(q[i].req.Line), q[i].bank, want))
			}
		}
	}
	for i := range c.banks {
		b := &c.banks[i]
		if b.rowOpened && b.openRow < 0 {
			report(fmt.Sprintf("bank %d open with row %d", i, b.openRow))
		}
		if !b.rowOpened && b.openRow != -1 {
			report(fmt.Sprintf("bank %d precharged but row register %d", i, b.openRow))
		}
	}
}

// HashState folds the controller's complete state — bank registers,
// queues, in-service transfers, bus bookkeeping and statistics — into
// the caller's hasher. All containers are slices iterated in order, so
// the digest is deterministic.
func (c *Controller) HashState(mix func(uint64)) {
	for i := range c.banks {
		b := &c.banks[i]
		mix(uint64(b.openRow))
		mix(b.readyAt)
		mix(dramBoolWord(b.rowOpened))
	}
	mix(uint64(len(c.readQ)))
	for _, q := range c.readQ {
		dramHashRequest(q.req, mix)
	}
	mix(uint64(len(c.writeQ)))
	for _, q := range c.writeQ {
		dramHashRequest(q.req, mix)
	}
	mix(uint64(len(c.inService)))
	for _, p := range c.inService {
		mix(p.finish)
		dramHashRequest(p.req, mix)
	}
	for ch := range c.busFreeAt {
		mix(c.busFreeAt[ch])
		mix(dramBoolWord(c.lastWrite[ch]))
	}
	mix(dramBoolWord(c.draining))
	mix(uint64(int64(c.burstLeft)))
	mix(c.doneReads)

	s := &c.Stats
	for _, v := range []uint64{
		s.Reads, s.Writes, s.DemandReads, s.PrefetchReads, s.MetaReads,
		s.MetaWrites, s.Writebacks, s.RowHits, s.RowMisses,
		s.BusBusyCycles, s.ReadQFullStall,
	} {
		mix(v)
	}
}

func dramHashRequest(r *mem.Request, mix func(uint64)) {
	mix(uint64(r.Type))
	mix(uint64(r.Addr))
	mix(uint64(r.Line))
	mix(r.PC)
	mix(uint64(int64(r.Core)))
	mix(uint64(int64(r.RegionID)))
	mix(dramBoolWord(r.StructFlag))
	mix(r.Issue)
}

func dramBoolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
