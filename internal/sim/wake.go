package sim

import (
	"math/bits"

	"rnrsim/internal/cache"
	"rnrsim/internal/cpu"
	"rnrsim/internal/mem"
	"rnrsim/internal/prefetch"
)

// The wake table: one slot per scheduled component, laid out in tick
// order — every core, then each core's L1, L2 and cycle-driven
// prefetcher, then the LLC banks (or the ideal LLC), then DRAM.
// bindWakeTable is the only place that order is written: step and
// nextWakeup visit slots front to back, skipping the core slots while
// the process is switched out. Every wakeup the event scheduler consults
// is cached here; none is polled.
//
// The machine has one clock, published by the System as (cycle,
// cursor): the component at slot i reads the cycle once the walk has
// passed it and the cycle before until then (mem.Clock). A component
// that does not tick therefore costs nothing: nothing moves its clock,
// and a core charges its idle cycles lazily, from the last cycle it
// charged up to the position it reads (cpu.Core.Settle).
//
// A slot caches its component's wakeup until the slot goes stale. Two
// bitsets over the slots hold the due set: the stale set, and the timed
// set of slots whose cached wakeup is a finite cycle, with timedMin a
// lower bound on those cycles. The gated step visits only the due set
// (tickDue): in ascending order the stale slots, and in a cycle timedMin
// has reached, the timed slots too, ticking those whose cycle has come.
// That includes slots an earlier tick marks in the same cycle; a slot an
// equal or later tick marks waits for the next walk. A slot neither
// stale nor timed waits on external input, and no walk visits it.
//
// The scheduler marks a slot stale when its component ticks. Cores also go stale
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
// their wakeup, through the mem.WakeFlag handed over by BindWakeFlag:
// an enqueue from above, a fill from below, a completion that frees the
// ROB head or a full LSQ, an invalidation; for the RnR engine a
// structure read during replay, a metadata arrival, a marker or a
// restore; for DROPLET a buffered edge-line fill; for the ideal LLC a
// buffered hit. So a frozen component costs nothing per cycle, with no
// call through its pointer. The cached value is only worth keeping if it
// is exact: a wakeup earlier than the component's next state change
// ticks it for nothing (Cache.Wakeup and dram.Controller.Wakeup spell
// out which blocked states are frozen).

// ticker is a scheduled component: the wakeup it caches in its slot
// and the tick the scheduler runs when that wakeup comes due.
type ticker interface {
	Wakeup(now uint64) uint64
	Tick(now uint64)
}

// wakeSlot is one wake-table entry.
type wakeSlot struct {
	comp ticker
	at   uint64 // cached wakeup; valid while the slot is not stale
}

// l1Ticker is an L1's slot: ticking it also marks its core stale when
// the core is blocked on a rejected request and the tick freed demand
// capacity, which the core's cached wakeup could not see.
type l1Ticker struct {
	*cache.Cache
	core      *cpu.Core
	coreStale mem.WakeFlag
}

func (t *l1Ticker) Tick(now uint64) {
	t.Cache.Tick(now)
	if t.core.BlockedOnL1() && t.CanAcceptDemand() {
		t.coreStale.Mark()
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
// stale and binds each component's clock and external-input flag to its
// slot. It records each cycle-driven prefetcher's slot in pfSlots, which
// a context switch rebinds. Components hold pointers into the table and
// the bitsets, so they are allocated once at their largest possible
// size and never move.
func (s *System) bindWakeTable() {
	s.allocWake(4*len(s.cores) + max(len(s.llcs), 1) + 1)
	s.pfSlots = make([]int, len(s.cores))
	add := func(comp ticker) int {
		s.wake = append(s.wake, wakeSlot{comp: comp})
		return len(s.wake) - 1
	}
	for _, core := range s.cores {
		i := add(core)
		core.BindClock(&s.clock, i)
		core.BindWakeFlag(s.flag(i))
	}
	for c, core := range s.cores {
		i := add(&l1Ticker{s.l1s[c], core, s.flag(c)})
		s.l1s[c].BindClock(&s.clock, i)
		s.l1s[c].BindWakeFlag(s.flag(i))
		i = add(s.l2s[c])
		s.l2s[c].BindClock(&s.clock, i)
		s.l2s[c].BindWakeFlag(s.flag(i))
		if _, ok := s.prefs[c].(prefetch.CycleDriven); ok {
			s.pfSlots[c] = add(nil)
			s.bindPrefetcherWake(c)
		}
	}
	for _, llc := range s.llcs {
		i := add(llc)
		llc.BindClock(&s.clock, i)
		llc.BindWakeFlag(s.flag(i))
	}
	if s.ideal != nil {
		i := add(s.ideal)
		s.ideal.clock, s.ideal.slot, s.ideal.wake = &s.clock, i, s.flag(i)
	}
	i := add(s.mc)
	s.mc.BindClock(&s.clock, i)
	s.mc.BindWakeFlag(s.flag(i))
	s.markStale(0)
	// Before the first cycle every component reads cycle 0.
	s.clock.Cursor = len(s.wake)
}

// allocWake allocates an empty wake table and its bitsets for up to n
// slots.
func (s *System) allocWake(n int) {
	s.wake = make([]wakeSlot, 0, n)
	words := (n + 63) / 64
	s.stale = make([]uint64, words)
	s.timed = make([]uint64, words)
	s.timedMin = WakeupNever
}

// flag returns slot i's stale flag.
func (s *System) flag(i int) mem.WakeFlag { return mem.NewWakeFlag(s.stale, i) }

// markStale marks every slot from first stale.
func (s *System) markStale(first int) {
	for i := first; i < len(s.wake); i++ {
		s.flag(i).Mark()
	}
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
	i := s.pfSlots[c]
	s.wake[i].comp = &pfTicker{pf, s.issueFns[c]}
	pf.BindWakeFlag(s.flag(i))
	s.flag(i).Mark()
}

// nextIn returns the first slot at or after i whose bit is set in a or
// b, or a slot past the table when there is none.
func nextIn(a, b []uint64, i int) int {
	for wi := i >> 6; wi < len(a); wi++ {
		set := a[wi] | b[wi]
		if wi == i>>6 {
			set &= ^uint64(0) << (i & 63)
		}
		if set != 0 {
			return wi<<6 | bits.TrailingZeros64(set)
		}
	}
	return len(a) << 6
}

// evaluate recomputes stale slot i's cached wakeup at now, clears its
// stale bit and files it in the timed set when the wakeup is a finite
// cycle.
func (s *System) evaluate(i int, now uint64) uint64 {
	w := &s.wake[i]
	w.at = w.comp.Wakeup(now)
	s.wakeEvals++
	wi, bit := i>>6, uint64(1)<<(i&63)
	s.stale[wi] &^= bit
	if w.at == WakeupNever {
		s.timed[wi] &^= bit
	} else {
		s.timed[wi] |= bit
		s.timedMin = min(s.timedMin, w.at)
	}
	return w.at
}

// tickDue runs the gated walk of cycle now from slot first: in ascending
// slot order it visits every stale slot and, once timedMin has come,
// every timed slot, rereading the stale set as it goes so that a slot an
// earlier tick marks is visited in this walk. A stale slot's wakeup is
// recomputed as of the previous cycle; the component ticks when its
// wakeup is due, and a ticked slot stays stale. A walk over the timed
// slots also recomputes timedMin. It reports whether any component
// ticked.
func (s *System) tickDue(first int, now uint64) (ticked bool) {
	// Locals, not fields: the walk's own state stays in registers across
	// the component calls. The bitsets' words are shared, so marks made
	// by those calls are seen.
	wake, stale, timed := s.wake, s.stale, s.timed
	timers := s.timedMin <= now
	tmin, evals := s.timedMin, uint64(0)
	if timers {
		tmin = s.timedBelow(first)
	}
	for wi := first >> 6; wi < len(stale); wi++ {
		from := uint(0)
		if wi == first>>6 {
			from = uint(first & 63)
		}
		for {
			st := stale[wi]
			set := st
			if timers {
				set |= timed[wi]
			}
			if set >>= from; set == 0 {
				break
			}
			b := from + uint(bits.TrailingZeros64(set))
			from = b + 1
			bit := uint64(1) << b
			i := wi<<6 | int(b)
			w := &wake[i]
			if st&bit != 0 {
				w.at = w.comp.Wakeup(now - 1)
				evals++
				if w.at > now {
					stale[wi] &^= bit
					if w.at == WakeupNever {
						timed[wi] &^= bit
					} else {
						timed[wi] |= bit
						tmin = min(tmin, w.at)
					}
					continue
				}
			} else if w.at > now {
				tmin = min(tmin, w.at) // a timed slot not yet due
				continue
			}
			timed[wi] &^= bit
			stale[wi] |= bit
			s.clock.Cursor = i + 1
			w.comp.Tick(now)
			ticked = true
		}
	}
	s.timedMin, s.wakeEvals = tmin, s.wakeEvals+evals
	return ticked
}

// timedBelow returns the earliest cached wakeup of the timed slots below
// first, the descheduled cores the walk skips (WakeupNever when none).
func (s *System) timedBelow(first int) uint64 {
	low := WakeupNever
	for i := 0; i < first; i++ {
		if s.timed[i>>6]&(1<<(i&63)) != 0 {
			low = min(low, s.wake[i].at)
		}
	}
	return low
}

// WakeEvals reports how many component wakeups the event scheduler
// evaluated, each a cached wakeup recomputed after its slot went stale.
// Like TickedCycles it is a deterministic,
// hardware-independent work counter for diagnostics and benchmarks,
// deliberately not part of Result or the state hash. The stepped engine
// evaluates none.
func (s *System) WakeEvals() uint64 { return s.wakeEvals }
