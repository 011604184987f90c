package prefetch

import (
	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
)

// MISB is a PC-localised temporal prefetcher with off-chip metadata,
// following Wu et al. [59] (itself built on ISB [25]). Miss streams are
// localised by PC and linearised into a *structural* address space so that
// temporally adjacent misses get consecutive structural addresses; the
// physical<->structural mappings are the metadata, held off-chip and cached
// on chip. On a miss, the line's structural address is looked up and the
// next misbDegree structural neighbours are prefetched.
//
// Metadata behaviour is modelled at the traffic level: mapping lookups that
// miss the on-chip metadata cache generate off-chip metadata reads, and
// newly created mappings eventually generate metadata writes. Metadata
// fetches do not stall prediction (MISB prefetches its metadata), so the
// effect captured is the paper's: extra off-chip traffic and bounded
// on-chip state, with prediction quality limited by PC localisation.
type MISB struct {
	// Meta, if set, receives the off-chip metadata traffic.
	Meta func(write bool, addr mem.Addr)

	ps        map[mem.Addr]uint64 // physical line -> structural address
	sp        map[uint64]mem.Addr // structural address -> physical line
	lastByPC  map[uint64]mem.Addr // training state: last miss line per PC
	nextAlloc uint64              // next structural region to allocate

	metaCache fifoTable[mem.Addr, struct{}] // resident metadata lines (FIFO approximates LRU)
	metaBase  mem.Addr                      // synthetic address of the off-chip metadata store
}

const (
	// misbDegree is the maximum prefetch degree (the paper notes MISB
	// uses 8).
	misbDegree = 8
	// misbMetaCacheLines bounds the on-chip metadata cache (in 64 B
	// lines, each covering 8 mappings). MISB's evaluation uses ~49 KB.
	misbMetaCacheLines = 49 * 1024 / mem.LineSize
)

// NewMISB returns a MISB-like prefetcher with the paper's parameters.
func NewMISB() *MISB {
	return &MISB{
		ps:        make(map[mem.Addr]uint64),
		sp:        make(map[uint64]mem.Addr),
		lastByPC:  make(map[uint64]mem.Addr),
		metaCache: newFIFOTable[mem.Addr, struct{}](misbMetaCacheLines),
		metaBase:  0x7f00_0000_0000,
	}
}

const misbRegion = 256 // structural addresses per allocated region

// OnAccess implements Prefetcher.
func (p *MISB) OnAccess(ev cache.AccessInfo, issue IssueFunc) {
	if ev.Hit {
		return
	}
	p.train(ev.PC, ev.Line)

	s, ok := p.lookupPS(ev.Line)
	if !ok {
		return
	}
	for i := uint64(1); i <= misbDegree; i++ {
		phys, ok := p.lookupSP(s + i)
		if !ok {
			break
		}
		issue(phys)
	}
}

// train links the previous miss of this PC to the current one in the
// structural space.
func (p *MISB) train(pc uint64, line mem.Addr) {
	prev, ok := p.lastByPC[pc]
	p.lastByPC[pc] = line
	if !ok || prev == line {
		return
	}
	ps, havePrev := p.ps[prev]
	if !havePrev {
		// Allocate a fresh structural region for the stream head.
		ps = p.nextAlloc
		p.nextAlloc += misbRegion
		p.setMapping(prev, ps)
	}
	if _, have := p.ps[line]; have {
		return // already linearised elsewhere; keep first mapping
	}
	next := ps + 1
	if next%misbRegion == 0 {
		// Region exhausted; start a new one.
		next = p.nextAlloc
		p.nextAlloc += misbRegion
	}
	if _, taken := p.sp[next]; taken {
		next = p.nextAlloc
		p.nextAlloc += misbRegion
	}
	p.setMapping(line, next)
}

func (p *MISB) setMapping(line mem.Addr, s uint64) {
	p.ps[line] = s
	p.sp[s] = line
	p.touchMeta(line, true)
}

func (p *MISB) lookupPS(line mem.Addr) (uint64, bool) {
	s, ok := p.ps[line]
	if ok {
		p.touchMeta(line, false)
	}
	return s, ok
}

func (p *MISB) lookupSP(s uint64) (mem.Addr, bool) {
	phys, ok := p.sp[s]
	if ok {
		p.touchMeta(mem.Addr(s<<3)|1, false)
	}
	return phys, ok
}

// touchMeta simulates the on-chip metadata cache in front of the off-chip
// store: 8 mappings per metadata line, FIFO replacement (a hardware-cheap
// LRU approximation), miss => off-chip read, dirty insert => eventual
// off-chip write.
func (p *MISB) touchMeta(key mem.Addr, dirty bool) {
	metaLine := p.metaBase + mem.LineAddr(key>>3)
	if p.metaCache.has(metaLine) {
		return
	}
	if p.Meta != nil {
		p.Meta(false, metaLine) // fetch mapping line from memory
		if dirty {
			p.Meta(true, metaLine) // new mapping written back eventually
		}
	}
	p.metaCache.put(metaLine, struct{}{})
}
