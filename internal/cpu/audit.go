package cpu

import (
	"fmt"

	"rnrsim/internal/trace"
)

// Audit hooks. The shapes (report func(law string) and mix func(uint64))
// are chosen so this package needs no audit import; internal/sim adapts
// them onto the audit.Checker and audit.Hash. The cross-component law —
// LSQ occupancy equals the L1's demand holds — is checked by sim, which
// can see both sides; here only the core-local laws live.
func (c *Core) AuditInvariants(report func(law string)) {
	if c.count < 0 || c.count > c.cfg.ROB {
		report(fmt.Sprintf("ROB occupancy %d outside [0,%d]", c.count, c.cfg.ROB))
	}
	if c.head < 0 || c.head >= c.cfg.ROB || c.tail < 0 || c.tail >= c.cfg.ROB {
		report(fmt.Sprintf("ROB ring pointers head=%d tail=%d outside [0,%d)", c.head, c.tail, c.cfg.ROB))
	} else if c.count < c.cfg.ROB && (c.tail-c.head+c.cfg.ROB)%c.cfg.ROB != c.count {
		report(fmt.Sprintf("ROB ring geometry: head=%d tail=%d does not span count=%d", c.head, c.tail, c.count))
	}
	if c.lsqUsed < 0 || c.lsqUsed > c.cfg.LSQ {
		report(fmt.Sprintf("LSQ occupancy %d outside [0,%d]", c.lsqUsed, c.cfg.LSQ))
	}
	if c.pendingExec > 0 && c.pendingValid {
		report("exec bundle draining while a record is still pending")
	}
	if c.pendingReq != nil {
		if !c.pendingValid {
			report("retry request outlives its pending record")
		} else if c.pendingRec.Kind != trace.KindLoad && c.pendingRec.Kind != trace.KindStore {
			report(fmt.Sprintf("retry request pending for non-memory record %s", c.pendingRec.Kind))
		}
	}
}

// HashState folds the core's complete state — ROB ring in retirement
// order, LSQ and dispatch registers, the pending record/request and the
// statistics, with pending idle cycles settled — into the caller's
// hasher.
func (c *Core) HashState(mix func(uint64)) {
	c.Settle()
	mix(uint64(int64(c.count)))
	for i := 0; i < c.count; i++ {
		e := &c.rob[(c.head+i)%c.cfg.ROB]
		mix(cpuBoolWord(e.mem)<<3 | cpuBoolWord(e.done)<<2 |
			cpuBoolWord(e.usesLSQ)<<1 | cpuBoolWord(e.marker))
		mix(e.doneAt)
	}
	mix(uint64(int64(c.lsqUsed)))
	mix(c.pendingExec)
	mix(cpuBoolWord(c.pendingValid))
	if c.pendingValid {
		hashRecord(c.pendingRec, mix)
	}
	mix(cpuBoolWord(c.pendingReq != nil))
	if r := c.pendingReq; r != nil {
		mix(uint64(r.Type))
		mix(uint64(r.Addr))
		mix(r.PC)
		mix(uint64(int64(r.RegionID)))
		mix(cpuBoolWord(r.StructFlag))
		mix(r.Issue)
	}
	mix(cpuBoolWord(c.drained))

	s := &c.Stats
	for _, v := range []uint64{
		s.Cycles, s.Instructions, s.Loads, s.Stores, s.Markers,
		s.FetchStalls, s.ROBStallCyc, s.LoadLatencySum,
	} {
		mix(v)
	}
}

func hashRecord(r trace.Record, mix func(uint64)) {
	mix(uint64(r.Kind))
	mix(uint64(r.Marker))
	mix(r.PC)
	mix(uint64(r.Addr))
	mix(r.Count)
	mix(uint64(int64(r.Aux)))
}

func cpuBoolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
