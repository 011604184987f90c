package sim

import "rnrsim/internal/mem"

// idealLLC is an infinite last-level cache for the "ideal" configuration
// of Fig. 6: every line misses exactly once (cold) and hits forever after.
// It is map-backed so capacity costs nothing until touched.
type idealLLC struct {
	latency  uint64
	lower    mem.Backend
	resident map[mem.Addr]struct{}
	pending  []pendingHit
	// clock is the machine's clock, read from the ideal LLC's wake-table
	// slot: it stamps hit completions and absorbed writebacks.
	clock *mem.Clock
	slot  int
	// wake is marked when a hit is buffered, the only input that moves
	// wakeup; the System binds it to the ideal LLC's wake-table slot.
	wake mem.WakeFlag
}

type pendingHit struct {
	req    *mem.Request
	finish uint64
}

func newIdealLLC(latency uint64, lower mem.Backend) *idealLLC {
	return &idealLLC{
		latency:  latency,
		lower:    lower,
		resident: make(map[mem.Addr]struct{}),
		wake:     mem.NewWakeFlag(make([]uint64, 1), 0),
	}
}

// TryEnqueue implements mem.Backend. The only posted requests that reach
// it, writebacks and metadata, are absorbed or forwarded within the call;
// reads arrive as L2 miss children with Done, so keeping r by reference
// follows the ownership rule.
func (c *idealLLC) TryEnqueue(r *mem.Request) bool {
	switch r.Type {
	case mem.ReqWriteback, mem.ReqMetaWrite:
		// Absorbed: an infinite LLC never writes back data lines; RnR
		// metadata still goes to memory to keep accounting honest.
		if r.Type == mem.ReqMetaWrite {
			return c.lower.TryEnqueue(r)
		}
		r.Complete(c.clock.At(c.slot))
		return true
	case mem.ReqMetaRead:
		return c.lower.TryEnqueue(r)
	}
	if _, ok := c.resident[r.Line]; ok {
		c.pending = append(c.pending, pendingHit{r, c.clock.At(c.slot) + c.latency})
		c.wake.Mark()
		return true
	}
	line := r.Line
	inner := *r
	inner.Done = func(cycle uint64) {
		c.resident[line] = struct{}{}
		r.Complete(cycle)
	}
	return c.lower.TryEnqueue(&inner)
}

// Wakeup reports the earliest pending-hit completion, or mem.WakeupNever
// when nothing is buffered (misses complete via the lower backend's
// callbacks, not this tick).
func (c *idealLLC) Wakeup(now uint64) uint64 {
	w := mem.WakeupNever
	for _, p := range c.pending {
		if p.finish < w {
			w = p.finish
		}
	}
	if w != mem.WakeupNever && w <= now {
		w = now + 1
	}
	return w
}

// Tick completes buffered hits.
func (c *idealLLC) Tick(now uint64) {
	kept := c.pending[:0]
	for _, p := range c.pending {
		if p.finish <= now {
			p.req.Complete(now)
		} else {
			kept = append(kept, p)
		}
	}
	c.pending = kept
}
