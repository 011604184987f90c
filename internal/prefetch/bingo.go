package prefetch

import (
	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
)

// Bingo is a spatial footprint prefetcher after Bakhshalipour et al. [9]:
// it records, per spatial region, the footprint (bitmap of accessed lines)
// observed during the region's generation, stores footprints in a history
// table, and on the trigger access of a new generation prefetches the
// remembered footprint. Bingo's contribution is matching history with
// multiple events ("PC+address" first, falling back to the shorter
// "PC+offset"), which this implementation reproduces.
//
// Spatial prefetchers assume recurring relative layouts; the paper's point
// (§II) is that long irregular sequences inside one big region defeat them,
// because a region's footprint carries no ordering and patterns do not
// repeat across regions.
type Bingo struct {
	gens regionTracker
	// history is keyed by the long event (PC+address) and the short event
	// (PC+offset); both hold footprint bitmaps.
	longHist  fifoTable[uint64, uint64]
	shortHist fifoTable[uint64, uint64]
}

// bingoHistEntries bounds each footprint history table.
const bingoHistEntries = 16 * 1024

// NewBingo returns a Bingo prefetcher with the original 2 KB regions.
func NewBingo() *Bingo {
	return &Bingo{
		gens:      newRegionTracker(),
		longHist:  newFIFOTable[uint64, uint64](bingoHistEntries),
		shortHist: newFIFOTable[uint64, uint64](bingoHistEntries),
	}
}

// OnAccess implements Prefetcher.
func (p *Bingo) OnAccess(ev cache.AccessInfo, issue IssueFunc) {
	p.gens.access(ev, issue, p)
}

// trigger prefetches the footprint remembered for the new generation's
// long event, else for its short event.
func (p *Bingo) trigger(pc uint64, region mem.Addr, off uint, issue IssueFunc) {
	fp, ok := p.longHist.get(regionKey(pc, region))
	if !ok {
		fp, ok = p.shortHist.get(offsetKey(pc, off))
	}
	if !ok {
		return
	}
	for i := uint(0); i < regionLines; i++ {
		if fp&(1<<i) != 0 && i != off {
			issue(region + mem.Addr(i)<<mem.LineShift)
		}
	}
}

func (p *Bingo) store(region mem.Addr, g *regionGen) {
	if g.touches < 2 {
		return
	}
	p.longHist.put(regionKey(g.trigPC, region), g.footprint)
	p.shortHist.put(offsetKey(g.trigPC, uint(g.trigOff)), g.footprint)
}
