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
	// RegionBytes is the spatial region size (2 KB in the Bingo paper).
	RegionBytes uint64
	// HistEntries bounds the footprint history table.
	HistEntries int

	regionShift uint
	linesPerReg uint

	active map[mem.Addr]*bingoGen // region base -> current generation
	// history is keyed by the long event (PC+address) and the short event
	// (PC+offset); both point at footprints.
	longHist  map[uint64]uint64 // key -> footprint bitmap
	shortHist map[uint64]uint64
	longFIFO  []uint64
	shortFIFO []uint64
	longPos   int
	shortPos  int
}

type bingoGen struct {
	footprint uint64 // bit per line in the region
	trigPC    uint64
	trigOff   uint
	touches   int
}

// NewBingo returns a Bingo prefetcher with the original 2 KB regions.
func NewBingo() *Bingo {
	return &Bingo{RegionBytes: 2048, HistEntries: 16 * 1024}
}

func (p *Bingo) init() {
	p.regionShift = 0
	for s := p.RegionBytes; s > 1; s >>= 1 {
		p.regionShift++
	}
	p.linesPerReg = uint(p.RegionBytes / mem.LineSize)
	p.active = make(map[mem.Addr]*bingoGen)
	p.longHist = make(map[uint64]uint64)
	p.shortHist = make(map[uint64]uint64)
}

func (p *Bingo) longKey(pc uint64, region mem.Addr) uint64 {
	return pc*0x9e3779b97f4a7c15 ^ uint64(region)
}

func (p *Bingo) shortKey(pc uint64, off uint) uint64 {
	return pc*0x9e3779b97f4a7c15 ^ uint64(off)<<1 ^ 1
}

// OnAccess implements Prefetcher.
func (p *Bingo) OnAccess(ev cache.AccessInfo, issue IssueFunc) {
	if p.active == nil {
		p.init()
	}
	region := ev.Line &^ (mem.Addr(p.RegionBytes) - 1)
	off := uint(uint64(ev.Line-region) >> mem.LineShift)

	gen, ok := p.active[region]
	if !ok {
		// Trigger access of a new generation: predict, then track.
		gen = &bingoGen{trigPC: ev.PC, trigOff: off}
		p.active[region] = gen
		p.predict(ev.PC, region, off, issue)
		// Bound the active table like hardware would.
		if len(p.active) > 256 {
			for base, g := range p.active {
				if base != region {
					p.retire(base, g)
					break
				}
			}
		}
	}
	gen.footprint |= 1 << off
	gen.touches++
	// Close the generation heuristically after the region has been live
	// for many touches; hardware closes on region eviction.
	if gen.touches >= int(p.linesPerReg)*2 {
		p.retire(region, gen)
	}
}

func (p *Bingo) predict(pc uint64, region mem.Addr, off uint, issue IssueFunc) {
	fp, ok := p.longHist[p.longKey(pc, region)]
	if !ok {
		fp, ok = p.shortHist[p.shortKey(pc, off)]
	}
	if !ok {
		return
	}
	for i := uint(0); i < p.linesPerReg; i++ {
		if fp&(1<<i) != 0 && i != off {
			issue(region + mem.Addr(i)<<mem.LineShift)
		}
	}
}

func (p *Bingo) retire(region mem.Addr, gen *bingoGen) {
	delete(p.active, region)
	if gen.footprint == 0 || gen.touches < 2 {
		return
	}
	p.put(&p.longHist, &p.longFIFO, &p.longPos, p.longKey(gen.trigPC, region), gen.footprint)
	p.put(&p.shortHist, &p.shortFIFO, &p.shortPos, p.shortKey(gen.trigPC, gen.trigOff), gen.footprint)
}

func (p *Bingo) put(histp *map[uint64]uint64, fifo *[]uint64, pos *int, key, fp uint64) {
	hist := *histp
	if _, ok := hist[key]; !ok {
		if len(*fifo) < p.HistEntries {
			*fifo = append(*fifo, key)
		} else {
			delete(hist, (*fifo)[*pos])
			(*fifo)[*pos] = key
			*pos = (*pos + 1) % p.HistEntries
		}
	}
	hist[key] = fp
}
