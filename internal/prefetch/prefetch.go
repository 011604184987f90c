// Package prefetch defines the prefetcher interface shared by all hardware
// prefetchers in the simulator and implements the baselines the paper
// compares against: next-line, a stream/stride prefetcher, a GHB temporal
// prefetcher, a MISB-like temporal prefetcher with off-chip metadata, a
// Bingo-like spatial footprint prefetcher, a SteMS-like spatio-temporal
// streaming prefetcher, a DROPLET-like graph-domain prefetcher and an
// IMP-like indirect prefetcher.
//
// All prefetchers observe demand traffic at the private L2 and prefetch
// into the private L2, matching the paper's methodology (§VII-A: "all of
// the evaluated prefetchers are prefetching data into the private L2").
// Prefetcher's one method, OnAccess, is that demand hook. The two other
// attachment points are optional interfaces: FillObserver for the L2
// fill stream (only DROPLET decodes fills) and CycleDriven for issuing
// from the cycle loop (DROPLET's fill drain and the RnR replay engine).
package prefetch

import (
	"rnrsim/internal/cache"
	"rnrsim/internal/mem"
)

// IssueFunc hands one prefetch candidate (a line address) to the attached
// cache level. The cache applies residency/in-flight filtering and queue
// capacity; the return value reports whether the prefetch was accepted
// (possibly filtered) rather than refused for capacity.
type IssueFunc func(line mem.Addr) bool

// Prefetcher is a hardware prefetcher attached to one private L2 cache.
// OnAccess is the one hook every prefetcher needs. The simulator finds
// the optional hooks below by a type assertion on the instance, so a
// prefetcher implements only the hooks it uses.
type Prefetcher interface {
	// OnAccess is invoked for every demand lookup the L2 performs.
	OnAccess(ev cache.AccessInfo, issue IssueFunc)
}

// FillObserver is implemented by prefetchers that react to lines
// (demand or prefetch) filling the L2.
type FillObserver interface {
	OnFill(line mem.Addr, prefetch bool, cycle uint64)
}

// CycleDriven is implemented by prefetchers that issue autonomously from
// the cycle loop (replay engines, fill-buffer drains). Wakeup reports the
// earliest future cycle at which OnCycle could change state —
// mem.WakeupNever when quiescent — under the contract documented in
// internal/mem; the simulator calls OnCycle only at cycles its wakeup
// has come due (or every cycle when stepping). Prefetchers that do not
// implement CycleDriven are never a reason to simulate a cycle.
//
// The simulator caches Wakeup and recomputes it only after OnCycle ran
// or after the prefetcher marked the flag handed over by BindWakeFlag. So
// a CycleDriven prefetcher marks it on every input outside OnCycle that can
// move its wakeup earlier (a fill, a demand access, a software marker),
// and Wakeup reads no state that changes without setting it.
type CycleDriven interface {
	OnCycle(cycle uint64, issue IssueFunc)
	Wakeup(now uint64) uint64
	BindWakeFlag(f mem.WakeFlag)
}

// RegionFilter wraps a prefetcher and suppresses its training and issuing
// inside a set of excluded address ranges. The paper uses this shape twice:
// the baseline L2 stream prefetcher is "trained by L2 misses outside of the
// Record-and-Replay address range" (§V-D), and RnR-Combined pairs RnR with
// a next-line prefetcher for all other data. It forwards FillObserver and
// CycleDriven hooks only when the wrapped prefetcher has them.
type RegionFilter struct {
	Inner    Prefetcher
	Excluded func(line mem.Addr) bool
}

// OnAccess implements Prefetcher, dropping events inside excluded ranges
// and fencing issued prefetches out of them as well.
func (f *RegionFilter) OnAccess(ev cache.AccessInfo, issue IssueFunc) {
	if f.Excluded != nil && f.Excluded(ev.Line) {
		return
	}
	f.Inner.OnAccess(ev, f.guard(issue))
}

// OnFill implements FillObserver.
func (f *RegionFilter) OnFill(line mem.Addr, prefetch bool, cycle uint64) {
	fo, ok := f.Inner.(FillObserver)
	if !ok || f.Excluded != nil && f.Excluded(line) {
		return
	}
	fo.OnFill(line, prefetch, cycle)
}

// OnCycle implements CycleDriven.
func (f *RegionFilter) OnCycle(cycle uint64, issue IssueFunc) {
	if cd, ok := f.Inner.(CycleDriven); ok {
		cd.OnCycle(cycle, f.guard(issue))
	}
}

// Wakeup implements CycleDriven by delegating to the wrapped prefetcher;
// the filter itself has no cycle-driven state.
func (f *RegionFilter) Wakeup(now uint64) uint64 {
	if cd, ok := f.Inner.(CycleDriven); ok {
		return cd.Wakeup(now)
	}
	return mem.WakeupNever
}

// BindWakeFlag implements CycleDriven by binding the wrapped prefetcher.
func (f *RegionFilter) BindWakeFlag(w mem.WakeFlag) {
	if cd, ok := f.Inner.(CycleDriven); ok {
		cd.BindWakeFlag(w)
	}
}

func (f *RegionFilter) guard(issue IssueFunc) IssueFunc {
	return func(line mem.Addr) bool {
		if f.Excluded != nil && f.Excluded(line) {
			return true // silently drop: out of the prefetcher's domain
		}
		return issue(line)
	}
}

// Combine runs several prefetchers side by side on the same cache level.
// It forwards FillObserver and CycleDriven hooks only to the members that
// have them.
type Combine []Prefetcher

// OnAccess implements Prefetcher.
func (c Combine) OnAccess(ev cache.AccessInfo, issue IssueFunc) {
	for _, p := range c {
		p.OnAccess(ev, issue)
	}
}

// OnFill implements FillObserver.
func (c Combine) OnFill(line mem.Addr, prefetch bool, cycle uint64) {
	for _, p := range c {
		if fo, ok := p.(FillObserver); ok {
			fo.OnFill(line, prefetch, cycle)
		}
	}
}

// OnCycle implements CycleDriven.
func (c Combine) OnCycle(cycle uint64, issue IssueFunc) {
	for _, p := range c {
		if cd, ok := p.(CycleDriven); ok {
			cd.OnCycle(cycle, issue)
		}
	}
}

// Wakeup implements CycleDriven as the minimum over cycle-driven members.
func (c Combine) Wakeup(now uint64) uint64 {
	w := mem.WakeupNever
	for _, p := range c {
		if cd, ok := p.(CycleDriven); ok {
			if v := cd.Wakeup(now); v < w {
				w = v
			}
		}
	}
	return w
}

// BindWakeFlag implements CycleDriven by binding every cycle-driven
// member to the one flag.
func (c Combine) BindWakeFlag(f mem.WakeFlag) {
	for _, m := range c {
		if cd, ok := m.(CycleDriven); ok {
			cd.BindWakeFlag(f)
		}
	}
}
