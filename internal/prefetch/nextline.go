package prefetch

import (
	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
)

// NextLine is the classic next-N-lines prefetcher [Smith & Hsu, 1992]: on
// every demand access it prefetches the following Degree lines. It is the
// paper's regular-pattern baseline.
type NextLine struct {
	// Degree is how many sequential lines to prefetch per access (>= 1).
	Degree int
	// OnMissOnly restricts triggering to demand misses.
	OnMissOnly bool
}

// NewNextLine returns a next-line prefetcher with the given degree.
func NewNextLine(degree int) *NextLine {
	if degree < 1 {
		degree = 1
	}
	return &NextLine{Degree: degree}
}

// OnAccess implements Prefetcher.
func (p *NextLine) OnAccess(ev cache.AccessInfo, issue IssueFunc) {
	if p.OnMissOnly && ev.Hit {
		return
	}
	for i := 1; i <= p.Degree; i++ {
		issue(ev.Line + mem.Addr(i*mem.LineSize))
	}
}
