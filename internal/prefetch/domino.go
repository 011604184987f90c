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
	// Size bounds the history buffer.
	Size int
	// Degree is how many successors to prefetch per trigger.
	Degree int

	buf   []mem.Addr
	pos   int
	count int
	// pairIdx maps (prev, cur) to the position after cur; oneIdx maps a
	// single address to its most recent position.
	pairIdx map[[2]mem.Addr]int
	oneIdx  map[mem.Addr]int
	prev    mem.Addr
	hasPrev bool
}

// NewDomino returns a Domino prefetcher with a typical configuration.
func NewDomino() *Domino { return &Domino{Size: 8192, Degree: 4} }

// OnAccess implements Prefetcher.
func (p *Domino) OnAccess(ev cache.AccessInfo, issue IssueFunc) {
	if ev.Hit {
		return
	}
	if p.buf == nil {
		p.buf = make([]mem.Addr, p.Size)
		p.pairIdx = make(map[[2]mem.Addr]int)
		p.oneIdx = make(map[mem.Addr]int)
	}

	// Predict from the strongest available context before recording.
	var at int
	var found bool
	if p.hasPrev {
		at, found = p.lookupPair(p.prev, ev.Line)
	}
	if !found {
		at, found = p.lookupOne(ev.Line)
	}
	if found {
		for i := 1; i <= p.Degree; i++ {
			idx := (at + i - 1) % p.Size
			if !p.valid(idx) || idx == p.pos {
				break
			}
			issue(p.buf[idx])
		}
	}

	p.record(ev.Line)
}

func (p *Domino) lookupPair(a, b mem.Addr) (int, bool) {
	at, ok := p.pairIdx[[2]mem.Addr{a, b}]
	return at, ok
}

func (p *Domino) lookupOne(a mem.Addr) (int, bool) {
	at, ok := p.oneIdx[a]
	if !ok {
		return 0, false
	}
	return (at + 1) % p.Size, true
}

func (p *Domino) record(line mem.Addr) {
	if p.count == p.Size {
		old := p.buf[p.pos]
		delete(p.oneIdx, old)
		// Pair entries referencing overwritten slots age out naturally
		// via the valid() guard; a full GC pass would be hardware-free.
	}
	p.buf[p.pos] = line
	p.oneIdx[line] = p.pos
	if p.hasPrev {
		p.pairIdx[[2]mem.Addr{p.prev, line}] = (p.pos + 1) % p.Size
	}
	p.pos = (p.pos + 1) % p.Size
	if p.count < p.Size {
		p.count++
	}
	p.prev = line
	p.hasPrev = true
}

func (p *Domino) valid(at int) bool {
	if p.count == p.Size {
		return true
	}
	return at < p.pos
}
