package sim

// The wake table: one slot per scheduled component, laid out in tick
// order — every core, then each core's L1, L2 and prefetcher, then the
// shared LLC (one slot per bank, or one for the ideal LLC), then DRAM.
//
// A slot caches its component's wakeup until the slot goes stale. The
// scheduler marks it stale when the component ticks. Cores also go stale
// when an L1 tick frees demand capacity while the core is blocked on a
// rejected request (only then does Core.Wakeup probe the L1), when the
// iteration barrier releases them and when a context switch fires (both
// change the fetch gate without touching the core). Components mark
// their own slot stale on external input that can move their wakeup —
// an enqueue from above, a fill from below, a completion that frees the
// ROB head or a full LSQ, an invalidation — through the flag pointer
// handed over by BindWakeFlag. So a frozen component costs one boolean
// load per use, with no call through its pointer.
//
// Prefetcher and ideal-LLC wakeups are polled, never cached: they have no
// external-input flag. Their slots only count the polls.

// wakeSlot is one wake-table entry.
type wakeSlot struct {
	at uint64 // cached wakeup; valid while !stale
	// evals counts the wakeup evaluations for this slot (diagnostics
	// only). It lives in the slot so that parallel domains, which own
	// disjoint slots, count without sharing a counter.
	evals uint64
	stale bool
}

func (s *System) l1Slot(c int) int  { return len(s.cores) + 3*c }
func (s *System) l2Slot(c int) int  { return len(s.cores) + 3*c + 1 }
func (s *System) pfSlot(c int) int  { return len(s.cores) + 3*c + 2 }
func (s *System) llcSlot(b int) int { return 4*len(s.cores) + b }

// bindWakeTable sizes the wake table, starts every slot stale and binds
// each cached component's external-input flag to its slot. The table is
// never reallocated afterwards: components hold pointers into it.
func (s *System) bindWakeTable() {
	shared := len(s.llcs)
	if s.ideal != nil {
		shared = 1
	}
	s.wake = make([]wakeSlot, 4*len(s.cores)+shared+1)
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
		w.evals++
	}
	return w.at
}

func (s *System) l1WakeAt(c int, now uint64) uint64 {
	w := &s.wake[s.l1Slot(c)]
	if w.stale {
		w.at, w.stale = s.l1s[c].Wakeup(now), false
		w.evals++
	}
	return w.at
}

func (s *System) l2WakeAt(c int, now uint64) uint64 {
	w := &s.wake[s.l2Slot(c)]
	if w.stale {
		w.at, w.stale = s.l2s[c].Wakeup(now), false
		w.evals++
	}
	return w.at
}

func (s *System) llcWakeAt(b int, now uint64) uint64 {
	w := &s.wake[s.llcSlot(b)]
	if w.stale {
		w.at, w.stale = s.llcs[b].Wakeup(now), false
		w.evals++
	}
	return w.at
}

func (s *System) mcWakeAt(now uint64) uint64 {
	w := &s.wake[len(s.wake)-1]
	if w.stale {
		w.at, w.stale = s.mc.Wakeup(now), false
		w.evals++
	}
	return w.at
}

// pfWakeAt polls core c's cycle-driven prefetcher (s.pfWake[c] != nil).
func (s *System) pfWakeAt(c int, now uint64) uint64 {
	s.wake[s.pfSlot(c)].evals++
	return s.pfWake[c].Wakeup(now)
}

// idealWakeAt polls the ideal LLC (s.ideal != nil).
func (s *System) idealWakeAt(now uint64) uint64 {
	s.wake[s.llcSlot(0)].evals++
	return s.ideal.wakeup(now)
}

// WakeEvals reports how many component wakeups the event scheduler
// evaluated: cached wakeups recomputed after going stale plus prefetcher
// and ideal-LLC polls. Like TickedCycles it is a deterministic,
// hardware-independent work counter for diagnostics and benchmarks,
// deliberately not part of Result or the state hash. The stepped engine
// evaluates none.
func (s *System) WakeEvals() uint64 {
	var n uint64
	for i := range s.wake {
		n += s.wake[i].evals
	}
	return n
}
