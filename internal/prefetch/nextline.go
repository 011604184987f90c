package prefetch

import (
	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
)

// NextLine is the classic next-N-lines prefetcher [Smith & Hsu, 1992]: on
// every demand access, hit or miss, it prefetches the following
// nextLineDegree lines. It is the paper's regular-pattern baseline.
type NextLine struct{}

// nextLineDegree is how many sequential lines NextLine prefetches per
// access.
const nextLineDegree = 1

// NewNextLine returns a next-line prefetcher.
func NewNextLine() *NextLine { return &NextLine{} }

// OnAccess implements Prefetcher.
func (p *NextLine) OnAccess(ev cache.AccessInfo, issue IssueFunc) {
	for i := 1; i <= nextLineDegree; i++ {
		issue(ev.Line + mem.Addr(i*mem.LineSize))
	}
}
