package sim

// The wake table: one slot per component whose wakeup is cached, laid
// out in tick order — every core, then each core's L1 and L2, then the
// LLC banks, then DRAM.
//
// A slot caches its component's wakeup until the slot goes stale. The
// scheduler marks it stale when the component ticks. Cores also go stale
// when an L1 tick frees demand capacity while the core is blocked on a
// rejected request (only then does Core.Wakeup probe the L1) and when
// the iteration barrier releases them (that changes the fetch gate
// without touching the core). A context switch marks no core: the
// scheduler skips descheduled cores instead of gating them, and
// Core.Wakeup reads nothing the switch changes. Components mark
// their own slot stale on external input that can move their wakeup —
// an enqueue from above, a fill from below, a completion that frees the
// ROB head or a full LSQ, an invalidation — through the flag pointer
// handed over by BindWakeFlag. So a frozen component costs one boolean
// load per use, with no call through its pointer.
//
// Prefetcher and ideal-LLC wakeups are polled, never cached: they have no
// external-input flag, so they have no slot.

// wakeSlot is one wake-table entry.
type wakeSlot struct {
	at    uint64 // cached wakeup; valid while !stale
	stale bool
}

func (s *System) l1Slot(c int) int  { return len(s.cores) + 2*c }
func (s *System) l2Slot(c int) int  { return len(s.cores) + 2*c + 1 }
func (s *System) llcSlot(b int) int { return 3*len(s.cores) + b }

// bindWakeTable sizes the wake table, starts every slot stale and binds
// each cached component's external-input flag to its slot. The table is
// never reallocated afterwards: components hold pointers into it.
func (s *System) bindWakeTable() {
	s.wake = make([]wakeSlot, 3*len(s.cores)+len(s.llcs)+1)
	for i := range s.wake {
		s.wake[i].stale = true
	}
	for c := range s.cores {
		s.cores[c].BindWakeFlag(&s.wake[c].stale)
		s.l1s[c].BindWakeFlag(&s.wake[s.l1Slot(c)].stale)
		s.l2s[c].BindWakeFlag(&s.wake[s.l2Slot(c)].stale)
	}
	for b := range s.llcs {
		s.llcs[b].BindWakeFlag(&s.wake[s.llcSlot(b)].stale)
	}
	s.mc.BindWakeFlag(&s.wake[len(s.wake)-1].stale)
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

// pfWakeAt polls core c's cycle-driven prefetcher (s.pfWake[c] != nil).
func (s *System) pfWakeAt(c int, now uint64) uint64 {
	s.wakeEvals++
	return s.pfWake[c].Wakeup(now)
}

// idealWakeAt polls the ideal LLC (s.ideal != nil).
func (s *System) idealWakeAt(now uint64) uint64 {
	s.wakeEvals++
	return s.ideal.wakeup(now)
}

// WakeEvals reports how many component wakeups the event scheduler
// evaluated: cached wakeups recomputed after going stale plus prefetcher
// and ideal-LLC polls. Like TickedCycles it is a deterministic,
// hardware-independent work counter for diagnostics and benchmarks,
// deliberately not part of Result or the state hash. The stepped engine
// evaluates none.
func (s *System) WakeEvals() uint64 { return s.wakeEvals }
