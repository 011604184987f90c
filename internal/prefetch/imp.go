package prefetch

import (
	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
)

// IMP is an indirect memory prefetcher after Yu et al. [60]: it detects a
// streaming index array B[] and prefetches the indirect targets A[B[i+d]]
// a lookahead distance d ahead of the demand stream. Unlike DROPLET it is
// purely hardware — there is no software region hint — so the index stream
// must first be *detected*, and targets can only be generated for index
// data that has already been fetched, which limits both accuracy and
// timeliness (the weaknesses §VIII attributes to it).
//
// Detection is modelled with the stream detector; indirection is resolved
// through the workload-provided IndirectResolver, standing in for the
// value inspection the real hardware performs on fetched index lines.
type IMP struct {
	// Resolve maps an index line to its indirect target lines.
	Resolve IndirectResolver
	// IndexRegion tests whether a line belongs to a (potential) index
	// array. IMP has no software hints; the sim passes a predicate over
	// the workload's streaming arrays to stand in for dynamic detection.
	IndexRegion func(line mem.Addr) bool

	lastIndexLine mem.Addr
	conf          int
}

const (
	impLookahead = 2 // stream lookahead distance in index lines
	// impConfidence gates indirect prefetching until the index stream has
	// been seen to be sequential this many times.
	impConfidence = 2
)

// NewIMP returns an IMP-like prefetcher; the caller must set Resolve and
// IndexRegion.
func NewIMP() *IMP { return &IMP{} }

// OnAccess implements Prefetcher.
func (p *IMP) OnAccess(ev cache.AccessInfo, issue IssueFunc) {
	if p.IndexRegion == nil || !p.IndexRegion(ev.Line) {
		return
	}
	switch {
	case ev.Line == p.lastIndexLine:
		return
	case ev.Line == p.lastIndexLine+mem.LineSize:
		if p.conf < impConfidence+2 {
			p.conf++
		}
	default:
		p.conf = 0
	}
	p.lastIndexLine = ev.Line

	if p.conf < impConfidence {
		return
	}
	// Prefetch the index stream ahead and the indirect targets of the
	// lookahead index line.
	ahead := ev.Line + impLookahead*mem.LineSize
	if p.IndexRegion(ahead) {
		issue(ahead)
		if p.Resolve != nil {
			for _, t := range p.Resolve(ahead) {
				issue(t)
			}
		}
	}
}
