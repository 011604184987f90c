package mem

// WakeupNever is the sentinel a component's Wakeup method returns when
// its state cannot change on any future cycle without external input
// (a new request arriving, a completion callback firing). The
// event-driven simulator core (internal/sim) takes the minimum wakeup
// across all components and jumps straight there; WakeupNever is the
// identity of that minimum.
//
// The wakeup contract, shared by every ticked component:
//
//   - Wakeup(now) returns the earliest cycle > now at which the
//     component's Tick could observably change state, assuming no
//     external input arrives before then. Returning an earlier cycle
//     than the true one is always safe (the extra tick is a no-op);
//     returning a later one is a correctness bug.
//   - A wakeup value <= now means "as soon as possible" and is treated
//     by the scheduler as now+1, never skipped.
//   - Wakeups are recomputed after every simulated cycle, so a
//     component whose next change is triggered by a completion
//     callback may report WakeupNever: the callback can only fire
//     during some component's tick, after which all wakeups are
//     re-evaluated.
const WakeupNever = ^uint64(0)

// DemandCapacity is optionally implemented by backends whose demand
// input queue applies backpressure. A core whose dispatch was rejected
// uses it to tell "the queue will have drained by next cycle" (retry
// imminent) from "still full" (frozen until the backend's next tick,
// after which wakeups are recomputed) without ticking every cycle.
type DemandCapacity interface {
	CanAcceptDemand() bool
}

// Clock is the machine's one clock, published by the scheduler that
// walks the components in a fixed tick order, one slot each. Cycle is
// the cycle being simulated and Cursor the first slot the walk has not
// yet passed: a component at slot i reads Cycle when i < Cursor and
// Cycle-1 otherwise. That is the lag a per-component clock copy would
// carry, where a component's clock moves to the cycle when its slot is
// passed: during an upstream tick a downstream component still reads the
// previous cycle, so an enqueue into it is stamped from there. Between
// cycles Cursor is past every slot, and a jump over idle cycles moves
// only Cycle.
type Clock struct {
	Cycle  uint64
	Cursor int
}

// At returns the cycle the component at slot reads.
func (c *Clock) At(slot int) uint64 {
	if slot < c.Cursor {
		return c.Cycle
	}
	return c.Cycle - 1
}

// WakeFlag is a scheduled component's handle on its slot's bit in the
// scheduler's stale set. A component marks it on every external input
// that can move its wakeup earlier; the scheduler recomputes the
// slot's cached wakeup, and clears the bit, when its walk next reaches
// the slot.
type WakeFlag struct {
	word *uint64
	bit  uint64
}

// NewWakeFlag returns the flag of slot i in the bitset set. A component
// built outside a scheduler gets one over a private word, so marking it
// is always safe.
func NewWakeFlag(set []uint64, i int) WakeFlag {
	return WakeFlag{&set[i>>6], 1 << (i & 63)}
}

// Mark sets the flag's bit.
func (f WakeFlag) Mark() { *f.word |= f.bit }
