package prefetch

import (
	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
)

// BestOffset is Michaud's best-offset prefetcher [36]: it learns the
// single line offset D that most often turns a recent miss X-D into the
// current access X early enough to be timely, then prefetches X+D on
// every access. The offset is re-elected each learning round from a fixed
// candidate list using a score table and a recent-requests history.
//
// The paper cites it among the general-purpose hardware prefetchers whose
// fixed-pattern assumption long irregular sequences defeat.
type BestOffset struct {
	offsets []int64 // candidate offsets in lines
	scores  []int
	current int64 // elected offset (0 = prefetching off)
	rounds  int
	tested  int
	candIdx int

	recent fifoTable[mem.Addr, struct{}] // lines recently requested (base of X-D test)
}

// NewBestOffset returns a best-offset prefetcher with the original
// candidate list truncated to small offsets.
func NewBestOffset() *BestOffset {
	p := &BestOffset{}
	for d := int64(1); d <= 8; d++ {
		p.offsets = append(p.offsets, d)
	}
	p.offsets = append(p.offsets, 10, 12, 16, -1, -2)
	p.scores = make([]int, len(p.offsets))
	p.current = 1
	p.recent = newFIFOTable[mem.Addr, struct{}](boRecentCap)
	return p
}

// The learning-round parameters of the original design.
const (
	boScoreMax  = 31  // a candidate reaching this score ends the round
	boRoundMax  = 256 // tested accesses per learning round
	boBadScore  = 1   // a winner scoring at or below this turns prefetching off
	boRecentCap = 256 // recent-requests history size
)

// OnAccess implements Prefetcher: learn on every demand miss, prefetch
// with the elected offset.
func (p *BestOffset) OnAccess(ev cache.AccessInfo, issue IssueFunc) {
	if ev.Hit {
		return
	}
	line := int64(ev.Line >> mem.LineShift)

	// Learning: test one candidate offset per miss — was X-D recently
	// requested? If so, D would have been timely for this miss.
	d := p.offsets[p.candIdx]
	if line-d >= 0 {
		if p.recent.has(mem.Addr(line-d) << mem.LineShift) {
			p.scores[p.candIdx]++
			if p.scores[p.candIdx] >= boScoreMax {
				p.elect(p.candIdx)
			}
		}
	}
	p.candIdx = (p.candIdx + 1) % len(p.offsets)
	p.tested++
	if p.tested >= boRoundMax {
		p.electBest()
	}

	p.recent.put(ev.Line, struct{}{})

	if p.current != 0 {
		target := line + p.current
		if target >= 0 {
			issue(mem.Addr(target) << mem.LineShift)
		}
	}
}

func (p *BestOffset) elect(idx int) {
	p.current = p.offsets[idx]
	p.resetRound()
}

func (p *BestOffset) electBest() {
	best, bestScore := 0, -1
	for i, s := range p.scores {
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	if bestScore <= boBadScore {
		p.current = 0 // prefetching off this round
	} else {
		p.current = p.offsets[best]
	}
	p.resetRound()
}

func (p *BestOffset) resetRound() {
	for i := range p.scores {
		p.scores[i] = 0
	}
	p.tested = 0
	p.rounds++
}
