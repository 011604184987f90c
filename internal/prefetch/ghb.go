package prefetch

import (
	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
)

// GHB is a Global History Buffer temporal prefetcher in the G/AC
// (global, address-correlating) organisation of Nesbit & Smith [38]: a
// circular buffer of global miss addresses plus an index table mapping the
// most recent occurrence of each address into the buffer. On a miss it
// looks up the previous occurrence of the missing address and prefetches
// the Degree addresses that followed it last time.
//
// The paper's §II uses exactly this design to motivate RnR: when an
// address is followed by different successors in interleaved streams, the
// GHB picks the most recent one and mispredicts.
type GHB struct {
	// Size is the history-buffer capacity in entries.
	Size int
	// Degree is how many successors to prefetch on a hit.
	Degree int

	buf   []mem.Addr // circular global history of miss lines
	pos   int        // next write position
	count int
	index map[mem.Addr]int // line -> last buffer position
}

// NewGHB returns a GHB prefetcher with a typical configuration.
func NewGHB() *GHB { return &GHB{Size: 4096, Degree: 4} }

// OnAccess implements Prefetcher. Training and triggering happen on demand
// misses, as in the original design.
func (p *GHB) OnAccess(ev cache.AccessInfo, issue IssueFunc) {
	if ev.Hit {
		return
	}
	if p.buf == nil {
		p.buf = make([]mem.Addr, p.Size)
		p.index = make(map[mem.Addr]int, p.Size)
	}
	prev, seen := p.index[ev.Line]

	// Record this miss in the global history.
	p.record(ev.Line)

	if !seen || !p.valid(prev) {
		return
	}
	// Prefetch the addresses that followed the previous occurrence.
	for i := 1; i <= p.Degree; i++ {
		at := (prev + i) % p.Size
		if !p.valid(at) || at == p.pos {
			break
		}
		issue(p.buf[at])
	}
}

func (p *GHB) record(line mem.Addr) {
	if p.count == p.Size {
		// The slot being overwritten may still be indexed; leave the stale
		// index entry — valid() guards against wrapped positions loosely,
		// and address-correlation tolerates occasional aliasing just as
		// the finite hardware table does.
		delete(p.index, p.buf[p.pos])
	}
	p.buf[p.pos] = line
	p.index[line] = p.pos
	p.pos = (p.pos + 1) % p.Size
	if p.count < p.Size {
		p.count++
	}
}

func (p *GHB) valid(at int) bool {
	if p.count == p.Size {
		return true
	}
	return at < p.pos
}
