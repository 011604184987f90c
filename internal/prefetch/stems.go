package prefetch

import (
	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
)

// SteMS is a spatio-temporal memory streaming prefetcher after Somogyi et
// al. [52]: spatial footprints are recorded per region generation (as in
// SMS) and the *order of region triggers* is recorded in a temporal stream;
// on a trigger that matches the recorded stream, SteMS replays the
// following region footprints, reconstructing an approximate total order.
//
// As the paper notes (§II), order inside a spatial region is not recorded,
// and the temporal stream is keyed on trigger events seen during the whole
// run, so distinct-but-similar long irregular sequences alias.
type SteMS struct {
	gens      regionTracker
	footHist  fifoTable[uint64, uint64] // trigger key -> footprint
	stream    []uint64                  // temporal order of trigger keys
	streamIdx map[uint64][]int          // trigger key -> positions in stream
	keyRegion map[uint64]mem.Addr
}

const (
	stemsHistEntries = 16 * 1024 // footprint history table bound
	stemsStreamDepth = 4         // successor regions replayed per trigger
)

// NewSteMS returns a SteMS prefetcher with SMS-style 2 KB regions.
func NewSteMS() *SteMS {
	return &SteMS{
		gens:      newRegionTracker(),
		footHist:  newFIFOTable[uint64, uint64](stemsHistEntries),
		streamIdx: make(map[uint64][]int),
		keyRegion: make(map[uint64]mem.Addr),
	}
}

// OnAccess implements Prefetcher.
func (p *SteMS) OnAccess(ev cache.AccessInfo, issue IssueFunc) {
	p.gens.access(ev, issue, p)
}

// trigger appends the new generation's trigger to the temporal stream and
// replays the regions that followed its previous occurrence.
func (p *SteMS) trigger(pc uint64, region mem.Addr, _ uint, issue IssueFunc) {
	k := regionKey(pc, region)
	p.appendStream(k, region)
	p.replay(k, issue)
}

func (p *SteMS) appendStream(k uint64, region mem.Addr) {
	const maxStream = 1 << 16
	if len(p.stream) >= maxStream {
		// Age out the oldest half to bound memory like a circular PMU.
		cut := len(p.stream) / 2
		p.stream = append([]uint64(nil), p.stream[cut:]...)
		p.streamIdx = make(map[uint64][]int, len(p.stream))
		for i, key := range p.stream {
			p.streamIdx[key] = append(p.streamIdx[key], i)
		}
	}
	p.streamIdx[k] = append(p.streamIdx[k], len(p.stream))
	p.stream = append(p.stream, k)
	p.keyRegion[k] = region
}

// replay looks up the most recent *previous* occurrence of the trigger in
// the temporal stream and prefetches the footprints of the regions that
// followed it.
func (p *SteMS) replay(k uint64, issue IssueFunc) {
	occ := p.streamIdx[k]
	if len(occ) < 2 {
		return
	}
	prev := occ[len(occ)-2] // latest occurrence before the one just added
	for d := 0; d < stemsStreamDepth; d++ {
		at := prev + 1 + d
		if at >= len(p.stream)-1 { // never replay the just-added trigger
			break
		}
		nk := p.stream[at]
		region, ok := p.keyRegion[nk]
		if !ok {
			continue
		}
		fp, ok := p.footHist.get(nk)
		if !ok {
			continue
		}
		for i := uint(0); i < regionLines; i++ {
			if fp&(1<<i) != 0 {
				issue(region + mem.Addr(i)<<mem.LineShift)
			}
		}
	}
}

func (p *SteMS) store(region mem.Addr, g *regionGen) {
	p.footHist.put(regionKey(g.trigPC, region), g.footprint)
}
