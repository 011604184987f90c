package prefetch

import (
	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
)

// Domino is a temporal prefetcher after Bakhshalipour et al. [8]: it
// indexes the global miss history by the last *two* miss addresses (a
// pair) rather than one, which disambiguates streams that share a single
// address — the exact failure mode the paper's §II example (9 followed by
// both 12 and 20) gives for single-address GHB lookup. A one-address
// fallback covers cold pairs.
type Domino struct {
	hist missRing
	// pairIdx maps (prev, cur) to the slot after cur's record.
	pairIdx map[[2]mem.Addr]int
	prev    mem.Addr
	hasPrev bool
}

const (
	dominoSize   = 8192 // history buffer entries
	dominoDegree = 4    // successors prefetched per trigger
)

// NewDomino returns a Domino prefetcher with a typical configuration.
func NewDomino() *Domino {
	return &Domino{
		hist:    newMissRing(dominoSize, 0),
		pairIdx: make(map[[2]mem.Addr]int),
	}
}

// OnAccess implements Prefetcher.
func (p *Domino) OnAccess(ev cache.AccessInfo, issue IssueFunc) {
	if ev.Hit {
		return
	}

	// Predict from the strongest available context before recording.
	var at int
	var found bool
	if p.hasPrev {
		at, found = p.pairIdx[[2]mem.Addr{p.prev, ev.Line}]
	}
	if !found {
		at, found = p.hist.after(ev.Line)
	}
	if found {
		p.hist.successors(at, dominoDegree, issue)
	}

	p.hist.record(ev.Line)
	if p.hasPrev {
		// Pair entries pointing at overwritten slots are never deleted;
		// they alias as the finite hardware table would.
		p.pairIdx[[2]mem.Addr{p.prev, ev.Line}] = p.hist.pos
	}
	p.prev = ev.Line
	p.hasPrev = true
}
