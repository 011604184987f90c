package prefetch

import (
	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
)

// IndirectResolver maps one cache line of an index/edge array to the data
// lines its contents reference (the A[B[i]] pattern). In real hardware the
// resolution happens by inspecting the fetched data; the trace-driven
// simulator cannot see data values, so the workload that generated the
// trace supplies the mapping, which is exactly the information the real
// prefetcher would extract from the returned line.
type IndirectResolver func(line mem.Addr) []mem.Addr

// Droplet is a graph-domain prefetcher after Basak et al. [10]: software
// identifies the edge array and the vertex-data array; hardware prefetches
// the edge array in a streaming fashion and, when edge data returns from
// memory, decodes the vertex indices in it and prefetches the corresponding
// vertex-data lines (the data-dependent indirect step).
//
// The timing weakness the paper exploits (§VII-A.1) is inherent here: the
// vertex prefetch cannot be issued before the edge line has been fetched,
// so for low-locality graphs the dependent prefetch is often too late.
type Droplet struct {
	// EdgeRegion tests whether a line belongs to the edge array.
	EdgeRegion func(line mem.Addr) bool
	// Resolve maps an edge line to the vertex lines it references.
	Resolve IndirectResolver

	resolved     fifoTable[mem.Addr, struct{}] // edge lines already decoded
	pendingFills []mem.Addr                    // edge lines filled this cycle, decoded in OnCycle
	wake         mem.WakeFlag                  // marked when a fill is buffered; see BindWakeFlag
}

const (
	dropletStreamAhead = 4       // edge lines streamed ahead of demand
	dropletMaxIndirect = 32      // vertex prefetches per decoded edge line
	dropletResolvedCap = 1 << 14 // decoded edge lines remembered
)

// NewDroplet returns a DROPLET-like prefetcher; the caller must set
// EdgeRegion and Resolve before use.
func NewDroplet() *Droplet {
	return &Droplet{
		resolved: newFIFOTable[mem.Addr, struct{}](dropletResolvedCap),
		wake:     mem.NewWakeFlag(make([]uint64, 1), 0),
	}
}

// OnAccess implements Prefetcher: stream the edge array ahead of demand.
func (p *Droplet) OnAccess(ev cache.AccessInfo, issue IssueFunc) {
	if p.EdgeRegion == nil || !p.EdgeRegion(ev.Line) {
		return
	}
	for i := 1; i <= dropletStreamAhead; i++ {
		next := ev.Line + mem.Addr(i*mem.LineSize)
		if p.EdgeRegion(next) {
			issue(next)
		}
	}
	// The demand edge line itself is (about to be) present: decode it too,
	// which models the DRAM read-queue snoop on demand fills.
	p.decode(ev.Line, issue)
}

// OnFill implements FillObserver: when an edge line arrives, decode the
// vertex indices it carries and prefetch the vertex data.
func (p *Droplet) OnFill(line mem.Addr, prefetch bool, cycle uint64) {
	// Decoding on fill requires an issue path; the simulator delivers
	// fills before OnCycle in the same cycle, so buffer the work.
	if p.EdgeRegion == nil || !p.EdgeRegion(line) {
		return
	}
	p.pendingFills = append(p.pendingFills, line)
	p.wake.Mark()
}

// OnCycle implements CycleDriven: decode the edge lines buffered by OnFill.
func (p *Droplet) OnCycle(cycle uint64, issue IssueFunc) {
	for _, line := range p.pendingFills {
		p.decode(line, issue)
	}
	p.pendingFills = p.pendingFills[:0]
}

// Wakeup implements CycleDriven: buffered edge-line fills are decoded on
// the very next cycle; otherwise OnCycle is a no-op.
func (p *Droplet) Wakeup(now uint64) uint64 {
	if len(p.pendingFills) > 0 {
		return now + 1
	}
	return mem.WakeupNever
}

// BindWakeFlag implements CycleDriven: OnFill, the only input that moves
// Wakeup, marks f.
func (p *Droplet) BindWakeFlag(f mem.WakeFlag) { p.wake = f }

func (p *Droplet) decode(edgeLine mem.Addr, issue IssueFunc) {
	if p.Resolve == nil {
		return
	}
	if p.resolved.has(edgeLine) {
		return
	}
	p.resolved.put(edgeLine, struct{}{})
	targets := p.Resolve(edgeLine)
	n := 0
	for _, t := range targets {
		if n >= dropletMaxIndirect {
			break
		}
		issue(t)
		n++
	}
}
