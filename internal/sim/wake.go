package sim

// The wake table: one slot per scheduled component, laid out in tick
// order — every core, then each core's L1, L2 and cycle-driven
// prefetcher, then the LLC banks (or the ideal LLC), then DRAM. Every
// wakeup the event scheduler consults is cached here; none is polled.
//
// A slot caches its component's wakeup until the slot goes stale. The
// scheduler marks it stale when the component ticks (a prefetcher: when
// its OnCycle runs). Cores also go stale when an L1 tick frees demand
// capacity while the core is blocked on a rejected request (only then
// does Core.Wakeup probe the L1) and when the iteration barrier
// releases them (that changes the fetch gate without touching the
// core). A context switch marks no core: the scheduler skips
// descheduled cores instead of gating them, and Core.Wakeup reads
// nothing the switch changes. A switch that swaps a prefetcher instance
// binds the new one to the slot and marks it (wirePrefetcher).
//
// Components mark their own slot stale on external input that can move
// their wakeup, through the flag pointer handed over by BindWakeFlag:
// an enqueue from above, a fill from below, a completion that frees the
// ROB head or a full LSQ, an invalidation; for the RnR engine a
// structure read during replay, a metadata arrival, a marker or a
// restore; for DROPLET a buffered edge-line fill; for the ideal LLC a
// buffered hit. So a frozen component costs one boolean load per use,
// with no call through its pointer. The cached value is only worth
// keeping if it is exact: a wakeup earlier than the component's next
// state change ticks it for nothing (Cache.Wakeup and
// dram.Controller.Wakeup spell out which blocked states are frozen).

// wakeSlot is one wake-table entry.
type wakeSlot struct {
	at    uint64 // cached wakeup; valid while !stale
	stale bool
}

func (s *System) l1Slot(c int) int  { return len(s.cores) + 3*c }
func (s *System) l2Slot(c int) int  { return len(s.cores) + 3*c + 1 }
func (s *System) pfSlot(c int) int  { return len(s.cores) + 3*c + 2 }
func (s *System) llcSlot(b int) int { return 4*len(s.cores) + b }

// idealSlot is the ideal LLC's slot: it replaces the LLC, so it takes
// the first LLC slot.
func (s *System) idealSlot() int { return s.llcSlot(0) }

// bindWakeTable sizes the wake table, starts every slot stale and binds
// each component's external-input flag to its slot. The table is never
// reallocated afterwards: components hold pointers into it.
func (s *System) bindWakeTable() {
	// Without banks the ideal LLC takes the one LLC slot.
	s.wake = make([]wakeSlot, 4*len(s.cores)+max(len(s.llcs), 1)+1)
	for i := range s.wake {
		s.wake[i].stale = true
	}
	for c := range s.cores {
		s.cores[c].BindWakeFlag(&s.wake[c].stale)
		s.l1s[c].BindWakeFlag(&s.wake[s.l1Slot(c)].stale)
		s.l2s[c].BindWakeFlag(&s.wake[s.l2Slot(c)].stale)
		s.bindPrefetcherWake(c)
	}
	for b := range s.llcs {
		s.llcs[b].BindWakeFlag(&s.wake[s.llcSlot(b)].stale)
	}
	if s.ideal != nil {
		s.ideal.wakeDirty = &s.wake[s.idealSlot()].stale
	}
	s.mc.BindWakeFlag(&s.wake[len(s.wake)-1].stale)
}

// bindPrefetcherWake binds core c's cycle-driven prefetcher, if it has
// one, to its slot and marks the slot stale, so a freshly swapped-in
// instance is asked for its wakeup before the old one's is trusted.
func (s *System) bindPrefetcherWake(c int) {
	w := &s.wake[s.pfSlot(c)]
	w.stale = true
	if s.pfWake[c] != nil {
		s.pfWake[c].BindWakeFlag(&w.stale)
	}
}

// The *WakeAt accessors return a component's wakeup, evaluating it only
// when its slot is stale.

func (s *System) coreWakeAt(c int, now uint64) uint64 {
	w := &s.wake[c]
	if w.stale {
		w.at, w.stale = s.cores[c].Wakeup(now), false
		s.wakeEvals++
	}
	return w.at
}

func (s *System) l1WakeAt(c int, now uint64) uint64 {
	w := &s.wake[s.l1Slot(c)]
	if w.stale {
		w.at, w.stale = s.l1s[c].Wakeup(now), false
		s.wakeEvals++
	}
	return w.at
}

func (s *System) l2WakeAt(c int, now uint64) uint64 {
	w := &s.wake[s.l2Slot(c)]
	if w.stale {
		w.at, w.stale = s.l2s[c].Wakeup(now), false
		s.wakeEvals++
	}
	return w.at
}

func (s *System) llcWakeAt(b int, now uint64) uint64 {
	w := &s.wake[s.llcSlot(b)]
	if w.stale {
		w.at, w.stale = s.llcs[b].Wakeup(now), false
		s.wakeEvals++
	}
	return w.at
}

func (s *System) mcWakeAt(now uint64) uint64 {
	w := &s.wake[len(s.wake)-1]
	if w.stale {
		w.at, w.stale = s.mc.Wakeup(now), false
		s.wakeEvals++
	}
	return w.at
}

// pfWakeAt is core c's cycle-driven prefetcher's wakeup (s.pfWake[c] !=
// nil).
func (s *System) pfWakeAt(c int, now uint64) uint64 {
	w := &s.wake[s.pfSlot(c)]
	if w.stale {
		w.at, w.stale = s.pfWake[c].Wakeup(now), false
		s.wakeEvals++
	}
	return w.at
}

// idealWakeAt is the ideal LLC's wakeup (s.ideal != nil).
func (s *System) idealWakeAt(now uint64) uint64 {
	w := &s.wake[s.idealSlot()]
	if w.stale {
		w.at, w.stale = s.ideal.wakeup(now), false
		s.wakeEvals++
	}
	return w.at
}

// WakeEvals reports how many component wakeups the event scheduler
// evaluated, each a cached wakeup recomputed after its slot went stale.
// Like TickedCycles it is a deterministic,
// hardware-independent work counter for diagnostics and benchmarks,
// deliberately not part of Result or the state hash. The stepped engine
// evaluates none.
func (s *System) WakeEvals() uint64 { return s.wakeEvals }
