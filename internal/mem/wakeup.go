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
