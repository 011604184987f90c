package prefetch

import (
	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
)

// Stream is a per-PC stride/stream prefetcher with confidence counters and
// a prefetch-ahead distance, in the style of the commercial L2 streamers
// the paper cites ([21], [30], [51]) and of Sander et al.'s stride
// prefetcher with confidence and dynamic prefetch-ahead. It detects
// constant strides per access site and, once confident, runs ahead of the
// demand stream.
type Stream struct {
	table map[uint64]*streamEntry
	order []uint64 // LRU order, front = oldest
}

type streamEntry struct {
	lastLine mem.Addr
	stride   int64 // in lines
	conf     int
}

// Typical L2-streamer settings.
const (
	streamEntries = 64 // detector table bound (LRU replacement)
	// streamConfidence is how many consecutive identical strides must be
	// seen before prefetching starts.
	streamConfidence = 2
	streamDegree     = 2 // strided lines issued per triggering access
	streamDistance   = 4 // how far ahead (in strides) the stream runs
)

// NewStream returns a stream prefetcher with typical L2-streamer settings.
func NewStream() *Stream {
	return &Stream{table: make(map[uint64]*streamEntry, streamEntries)}
}

// OnAccess implements Prefetcher.
func (p *Stream) OnAccess(ev cache.AccessInfo, issue IssueFunc) {
	e, ok := p.table[ev.PC]
	if !ok {
		p.insert(ev.PC, &streamEntry{lastLine: ev.Line})
		return
	}
	p.touch(ev.PC)
	stride := int64(ev.Line>>mem.LineShift) - int64(e.lastLine>>mem.LineShift)
	if stride == 0 {
		return // same line; no information
	}
	if stride == e.stride {
		if e.conf < streamConfidence+4 {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 1
	}
	e.lastLine = ev.Line
	if e.conf < streamConfidence {
		return
	}
	base := int64(ev.Line >> mem.LineShift)
	for i := 1; i <= streamDegree; i++ {
		target := base + e.stride*int64(streamDistance+i-1)
		if target < 0 {
			continue
		}
		issue(mem.Addr(target) << mem.LineShift)
	}
}

func (p *Stream) insert(pc uint64, e *streamEntry) {
	if len(p.table) >= streamEntries && len(p.order) > 0 {
		oldest := p.order[0]
		p.order = p.order[1:]
		delete(p.table, oldest)
	}
	p.table[pc] = e
	p.order = append(p.order, pc)
}

func (p *Stream) touch(pc uint64) {
	for i, v := range p.order {
		if v == pc {
			p.order = append(p.order[:i], p.order[i+1:]...)
			p.order = append(p.order, pc)
			return
		}
	}
}
