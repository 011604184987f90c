package prefetch

import "rnrsim/internal/cache"

// GHB is a Global History Buffer temporal prefetcher in the G/AC
// (global, address-correlating) organisation of Nesbit & Smith [38]: a
// circular buffer of global miss addresses plus an index table mapping the
// most recent occurrence of each address into the buffer. On a miss it
// looks up the previous occurrence of the missing address and prefetches
// the ghbDegree addresses that followed it last time.
//
// The paper's §II uses exactly this design to motivate RnR: when an
// address is followed by different successors in interleaved streams, the
// GHB picks the most recent one and mispredicts.
type GHB struct {
	hist missRing
}

const (
	ghbSize   = 4096 // history buffer entries
	ghbDegree = 4    // successors prefetched on a hit
)

// NewGHB returns a GHB prefetcher with a typical configuration.
func NewGHB() *GHB {
	return &GHB{hist: newMissRing(ghbSize, ghbSize)}
}

// OnAccess implements Prefetcher. Training and triggering happen on demand
// misses, as in the original design.
func (p *GHB) OnAccess(ev cache.AccessInfo, issue IssueFunc) {
	if ev.Hit {
		return
	}
	next, seen := p.hist.after(ev.Line)
	p.hist.record(ev.Line)
	if seen {
		// Prefetch the addresses that followed the previous occurrence.
		p.hist.successors(next, ghbDegree, issue)
	}
}
