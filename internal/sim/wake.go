package sim

import (
	"rnrsim/internal/cache"
	"rnrsim/internal/cpu"
	"rnrsim/internal/dram"
	"rnrsim/internal/prefetch"
)

// The wake table: one slot per scheduled component, laid out in tick
// order — every core, then each core's L1, L2 and cycle-driven
// prefetcher, then the LLC banks (or the ideal LLC), then DRAM.
// bindWakeTable is the only place that order is written: step,
// nextWakeup and advanceTo each walk the table front to back, skipping
// the core slots while the process is switched out. Every wakeup the
// event scheduler consults is cached here; none is polled.
//
// A slot caches its component's wakeup until the slot goes stale. The
// scheduler marks it stale when the component ticks. Cores also go stale
// when an L1 tick frees demand capacity while the core is blocked on a
// rejected request (only then does Core.Wakeup probe the L1; l1Ticker
// marks it) and when the iteration barrier releases them (that changes
// the fetch gate without touching the core). A context switch marks no
// core: the scheduler skips descheduled cores instead of gating them,
// and Core.Wakeup reads nothing the switch changes. A switch that swaps
// a prefetcher instance binds the new one to its slot and marks it
// (bindPrefetcherWake).
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

// ticker is a scheduled component: the wakeup it caches in its slot
// and the tick the scheduler runs when that wakeup comes due.
type ticker interface {
	Wakeup(now uint64) uint64
	Tick(now uint64)
}

// wakeSlot is one wake-table entry.
type wakeSlot struct {
	comp  ticker
	at    uint64 // cached wakeup; valid while !stale
	stale bool
}

// l1Ticker is an L1's slot: ticking it also marks its core stale when
// the core is blocked on a rejected request and the tick freed demand
// capacity, which the core's cached wakeup could not see.
type l1Ticker struct {
	*cache.Cache
	core      *cpu.Core
	coreStale *bool
}

func (t *l1Ticker) Tick(now uint64) {
	t.Cache.Tick(now)
	if t.core.BlockedOnL1() && t.CanAcceptDemand() {
		*t.coreStale = true
	}
}

// pfTicker is a cycle-driven prefetcher's slot, ticked with its core's
// issue path.
type pfTicker struct {
	pf    prefetch.CycleDriven
	issue prefetch.IssueFunc
}

func (t *pfTicker) Wakeup(now uint64) uint64 { return t.pf.Wakeup(now) }
func (t *pfTicker) Tick(now uint64)          { t.pf.OnCycle(now, t.issue) }

// bindWakeTable builds the wake table in tick order, starts every slot
// stale and binds each component's external-input flag to its slot. It
// records each cycle-driven prefetcher's slot in pfSlots, which a
// context switch rebinds. Components hold pointers into the table, so
// it is allocated once at its largest possible size and never moves.
func (s *System) bindWakeTable() {
	s.wake = make([]wakeSlot, 0, 4*len(s.cores)+max(len(s.llcs), 1)+1)
	s.pfSlots = make([]int, len(s.cores))
	add := func(comp ticker) *bool {
		s.wake = append(s.wake, wakeSlot{comp: comp, stale: true})
		return &s.wake[len(s.wake)-1].stale
	}
	for _, core := range s.cores {
		core.BindWakeFlag(add(core))
	}
	for c, core := range s.cores {
		s.l1s[c].BindWakeFlag(add(&l1Ticker{s.l1s[c], core, &s.wake[c].stale}))
		s.l2s[c].BindWakeFlag(add(s.l2s[c]))
		if _, ok := s.prefs[c].(prefetch.CycleDriven); ok {
			s.pfSlots[c] = len(s.wake)
			s.wake = append(s.wake, wakeSlot{})
			s.bindPrefetcherWake(c)
		}
	}
	for _, llc := range s.llcs {
		llc.BindWakeFlag(add(llc))
	}
	if s.ideal != nil {
		s.ideal.wakeDirty = add(s.ideal)
	}
	s.mc.BindWakeFlag(add(s.mc))
}

// bindPrefetcherWake puts core c's prefetcher, if it is cycle-driven, in
// its slot with the core's issue path, binds the instance's flag to the
// slot and marks the slot stale, so a freshly swapped-in instance is
// asked for its wakeup before the old one's is trusted.
func (s *System) bindPrefetcherWake(c int) {
	pf, ok := s.prefs[c].(prefetch.CycleDriven)
	if !ok {
		return
	}
	w := &s.wake[s.pfSlots[c]]
	w.comp, w.stale = &pfTicker{pf, s.issueFns[c]}, true
	pf.BindWakeFlag(&w.stale)
}

// wakeAt returns slot i's wakeup, evaluating it only when the slot is
// stale.
func (s *System) wakeAt(i int, now uint64) uint64 {
	w := &s.wake[i]
	if w.stale {
		w.at, w.stale = w.comp.Wakeup(now), false
		s.wakeEvals++
	}
	return w.at
}

// skipIdle charges a component that did not tick for the cycles up to
// and including cycle now, n of them: a core counts them as idle, every
// other clocked component moves its clock to now (a prefetcher keeps
// none). The calls are direct, one type switch per skipped component,
// because this runs for each idle component on every simulated cycle.
func skipIdle(comp ticker, n, now uint64) {
	switch comp := comp.(type) {
	case *cpu.Core:
		comp.SkipIdle(n)
	case *l1Ticker:
		comp.AdvanceClock(now)
	case *cache.Cache:
		comp.AdvanceClock(now)
	case *dram.Controller:
		comp.AdvanceClock(now)
	case *idealLLC:
		comp.AdvanceClock(now)
	}
}

// WakeEvals reports how many component wakeups the event scheduler
// evaluated, each a cached wakeup recomputed after its slot went stale.
// Like TickedCycles it is a deterministic,
// hardware-independent work counter for diagnostics and benchmarks,
// deliberately not part of Result or the state hash. The stepped engine
// evaluates none.
func (s *System) WakeEvals() uint64 { return s.wakeEvals }
