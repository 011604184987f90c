package sim

// Parallel per-core execution: between two consecutive shared-level
// wakeups, each core's private domain (core + L1 + L2 + per-core
// prefetcher + RnR engine) touches no state outside itself, so the event
// scheduler can fan the domains' tick spans out over a bounded worker
// pool and join before the next shared-state mutation. Determinism is by
// construction, not by locking: the span horizon T is sized so that no
// private-domain action can reach the shared level — or any other
// domain — before cycle T, every domain replays exactly the per-cycle
// component order tickGated would have used, and the cycle T itself is
// simulated serially by the regular event path. State hashes, per-core
// sub-hashes, telemetry JSONL and the export envelope are byte-identical
// to the serial engines; the differential matrix in parallel_test.go and
// the fuzz harness hold it to that.
//
// The central soundness invariant is the *frozen L2*: within a window
// (now, T) no private L2 ever processes a queue entry. Everything a
// domain does in-window — core retire/fetch, L1 hit processing, L1 miss
// children and writebacks enqueued into the L2, prefetcher OnCycle
// issues into the L2 prefetch queue — either stays above the L2 or lands
// in an L2 input queue with a ready stamp >= T. Since the L2 is the only
// private component with a reference to shared state (the LLC banks, the
// DRAM controller via RnR metadata reads), a frozen L2 means no shared
// access, no cross-domain write, and no hook (OnAccess/OnFill/OnEvict,
// prefetcher training, RnR record-mode metadata) fires mid-window.
//
// The horizon terms that enforce it, all derived from the wakeup
// contract's "earliest first action" lower bounds (see mem.WakeupNever):
//
//   shared caps   T <= first wakeup of ctx switch, telemetry sample,
//                 audit sweep, every LLC bank, the ideal LLC, DRAM.
//   frozen L2     T <= l2.Wakeup(now): nothing already queued may ripen.
//   L1 feed       T <= l1.Wakeup(now) + L2.Latency - 1: an L1 action at
//                 cycle u enqueues into the L2 with ready u-1+L2.Latency.
//   pf feed       T <= pfWakeup(now) + L2.Latency: OnCycle at cycle u
//                 runs after the L2's clock reached u, so its issues
//                 ripen at u+L2.Latency.
//   fresh loads   T <= dispatch(memU) + L1.Latency + L2.Latency - 2: a
//                 load dispatched at cycle d is processed by the L1 at
//                 d-1+L1.Latency and its miss child ripens in the L2 at
//                 d-2+L1.Latency+L2.Latency.
//   markers       T <= dispatch(markU): marker dispatch fires OnMarker
//                 (barrier arrivals, RnR record finalisation) and must
//                 stay serial.
//   drain         T <= now + ceil(drainU/W): a core going Done mid-span
//                 could open a barrier or end the run earlier than the
//                 span's end, which only the serial loop may observe.
//
// where dispatch(n) = now + ceil((n+1)/W) is the earliest cycle the
// (n+1)-th fetch unit can dispatch at width W, and memU/markU/drainU
// come from Core.QuietScan (trace lookahead). Configurations whose
// private domains reach shared state mid-window by construction — the
// coherence directory hooks L1 demand processing, RnRPrefetchToLLC
// issues into the LLC banks — never open windows at all.

import (
	"runtime"
	"sync"

	"rnrsim/internal/mem"
)

// parallelMinSpan is the minimum number of in-window cycles worth
// dispatching to the pool: shorter spans pay more in channel traffic and
// join latency than they save, so they fall through to the serial path.
const parallelMinSpan = 8

// corePool is the worker pool domain spans are fanned out over.
type corePool struct {
	jobs    chan spanJob
	span    sync.WaitGroup // joins the in-flight span's domains
	workers sync.WaitGroup // joins worker exit on shutdown

	domTicks []uint64 // per-domain simulated-cycle counts, element-exclusive
}

// spanJob asks a worker to run core c's domain over cycles (from, to].
type spanJob struct {
	c        int
	from, to uint64
}

// parallelEligible reports whether the configuration permits domain
// spans at all. Coherence hooks the L1s' demand processing into the
// shared directory (an in-window action by construction), and the §III
// LLC-destination ablation routes per-core prefetch issues into the
// shared banks; both keep the serial engine.
func (s *System) parallelEligible() bool {
	return s.cfg.CoreParallel && s.cfg.Cores > 1 &&
		!s.cfg.Coherence && !s.cfg.RnRPrefetchToLLC
}

func (s *System) startPool() {
	n := s.cfg.CoreParallelWorkers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > s.cfg.Cores {
		n = s.cfg.Cores
	}
	p := &corePool{
		jobs:     make(chan spanJob, s.cfg.Cores),
		domTicks: make([]uint64, s.cfg.Cores),
	}
	for i := 0; i < n; i++ {
		p.workers.Add(1)
		go func() {
			defer p.workers.Done()
			for j := range p.jobs {
				p.domTicks[j.c] = s.runDomain(j.c, j.from, j.to)
				p.span.Done()
			}
		}()
	}
	s.par = p
}

func (s *System) stopPool() {
	close(s.par.jobs)
	s.par.workers.Wait()
	s.par = nil
}

// satAdd returns a+b, saturating at WakeupNever so a "never" wakeup
// stays never instead of wrapping into the past.
func satAdd(a, b uint64) uint64 {
	if a >= mem.WakeupNever-b {
		return mem.WakeupNever
	}
	return a + b
}

// quietHorizon returns the first cycle T at which shared-level state can
// next be touched, such that the domains are provably independent over
// (s.cycle, T), or 0 when no worthwhile window exists (shared activity
// too soon, a domain's actions would escape, or fewer than two domains
// have anything to do). The caller runs cycles s.cycle+1 .. T-1 in
// parallel and leaves cycle T to the serial event path.
func (s *System) quietHorizon(limit uint64) uint64 {
	now := s.cycle
	dead := now + parallelMinSpan // t must stay above this to be worth it
	if limit <= dead {
		return 0
	}
	t := limit
	lower := func(w uint64) bool {
		if w <= now {
			w = now + 1
		}
		if w < t {
			t = w
		}
		return t <= dead
	}

	// Shared-level caps: the window closes strictly before the first
	// cycle any shared component or scheduled event can act.
	if s.ctxOn && lower(s.ctx.wakeup()) {
		return 0
	}
	if s.tel != nil && lower(s.nextSampleAt) {
		return 0
	}
	if s.aud != nil && lower(s.nextAuditAt) {
		return 0
	}
	for b := range s.llcs {
		if lower(s.llcWakeAt(b, now)) {
			return 0
		}
	}
	if s.ideal != nil && lower(s.idealWakeAt(now)) {
		return 0
	}
	if lower(s.mcWakeAt(now)) {
		return 0
	}

	l1Lat := uint64(s.cfg.L1.Latency)
	l2Lat := uint64(s.cfg.L2.Latency)
	if l1Lat == 0 || l2Lat == 0 {
		return 0 // degenerate latencies void the feed-through slack
	}
	w := uint64(s.cfg.CPU.FetchWidth)
	out := s.ctx.out
	active := 0
	for c := range s.cores {
		// A replaying RnR engine with metadata reads left to issue can
		// unblock its in-fly throttle mid-window and reach the DRAM
		// controller; refuse the window outright.
		if e := s.engines[c]; e != nil && e.MetaStreamPending() {
			return 0
		}
		domMin := uint64(mem.WakeupNever) // domain's first action, for the active count

		// Frozen L2: nothing already queued in the L2 may ripen in-window.
		h2 := s.l2WakeAt(c, now)
		if h2 <= now {
			h2 = now + 1
		}
		if h2 < domMin {
			domMin = h2
		}
		if lower(h2) {
			return 0
		}
		// L1 feed-through: an L1 action at cycle u >= h1 enqueues into the
		// L2 with ready u-1+l2Lat, which must not ripen before T.
		h1 := s.l1WakeAt(c, now)
		if h1 <= now {
			h1 = now + 1
		}
		if h1 < domMin {
			domMin = h1
		}
		if lower(satAdd(h1, l2Lat-1)) {
			return 0
		}
		// Prefetcher feed: OnCycle at u issues with ready u+l2Lat (the
		// L2's clock has already reached u when the prefetcher runs).
		if s.cycleDriven[c] {
			if s.pfWake[c] == nil {
				return 0 // wakeup unknown: dense-stepping territory
			}
			p := s.pfWakeAt(c, now)
			if p <= now {
				p = now + 1
			}
			if p < domMin {
				domMin = p
			}
			if lower(satAdd(p, l2Lat)) {
				return 0
			}
		}
		if !out {
			cw := s.coreWakeAt(c, now)
			if cw <= now {
				cw = now + 1
			}
			if cw < domMin {
				domMin = cw
			}
			core := s.cores[c]
			if !s.barriers[s.coreGrp[c]].gated(s.coreSlot[c]) {
				// Trace lookahead: fresh loads, markers and the drain edge.
				memU, markU, drainU := core.QuietScan((t - now) * w)
				if lower(now + (memU+w)/w + l1Lat + l2Lat - 2) {
					return 0
				}
				if lower(now + (markU+w)/w) {
					return 0
				}
				dt := (drainU + w - 1) / w
				if dt == 0 {
					dt = 1
				}
				if lower(now + dt) {
					return 0
				}
			} else if core.Drained() && !core.Done() {
				// A gated core cannot fetch, so the lookahead terms are
				// moot — but one that already drained its trace can still
				// go Done through retirement alone, mid-window, which only
				// the serial loop may observe (barrier opens, run end).
				return 0
			}
		}
		if domMin < t {
			active++
		}
	}
	if active < 2 {
		return 0 // nothing to overlap; the serial path is cheaper
	}
	return t
}

// runSpan fans the window (s.cycle, t) out over the pool, joins, and
// fast-forwards the shared level to t-1 — exactly what advanceTo's gap
// handling would have done, since no shared component acted in-window.
// The serial loop then simulates cycle t (the shared event) normally.
func (s *System) runSpan(t uint64) {
	p := s.par
	now := s.cycle
	to := t - 1
	p.span.Add(len(s.cores))
	for c := range s.cores {
		p.jobs <- spanJob{c: c, from: now, to: to}
	}
	p.span.Wait()
	for _, llc := range s.llcs {
		llc.AdvanceClock(to)
	}
	if s.ideal != nil {
		s.ideal.advanceClock(to)
	}
	s.mc.AdvanceClock(to)
	s.cycle = to
	s.doneDirty = true
	var maxTicks uint64
	for c := range p.domTicks {
		if p.domTicks[c] > maxTicks {
			maxTicks = p.domTicks[c]
		}
	}
	s.ticked += maxTicks
	s.parSpans++
	s.parSpanCycles += to - now
}

// ParallelSpans reports how many domain spans the parallel scheduler
// executed and how many in-window cycles they covered. Diagnostics and
// tests only — like TickedCycles, deliberately not part of Result.
func (s *System) ParallelSpans() (spans, cycles uint64) {
	return s.parSpans, s.parSpanCycles
}

// runDomain simulates core c's private domain over cycles (from, to],
// alone on a worker goroutine. It is tickGated restricted to one
// domain: the same per-cycle component order (core, L1, L2, prefetcher),
// the same wake-table discipline (the domain's slots are element-exclusive
// by core; the pool join publishes every write before the serial loop
// reads them), and the same idle batching as advanceTo — a gap where
// the domain's own minimum wakeup says nothing happens is charged via
// SkipIdle/AdvanceClock in one jump, which is sound because no other
// domain and no shared component can touch this domain mid-window.
func (s *System) runDomain(c int, from, to uint64) uint64 {
	out := s.ctx.out
	core, l1, l2 := s.cores[c], s.l1s[c], s.l2s[c]
	// With cd set, s.pfWake[c] is non-nil: quietHorizon refused the window
	// otherwise.
	cd := s.cycleDriven[c]
	l1Slot, l2Slot := s.l1Slot(c), s.l2Slot(c)
	cur := from
	var ticks uint64
	for cur < to {
		nw := uint64(mem.WakeupNever)
		if !out {
			if w := s.coreWakeAt(c, cur); w < nw {
				nw = w
			}
		}
		if w := s.l1WakeAt(c, cur); w < nw {
			nw = w
		}
		if w := s.l2WakeAt(c, cur); w < nw {
			nw = w
		}
		if cd {
			if w := s.pfWakeAt(c, cur); w < nw {
				nw = w
			}
		}
		if nw <= cur {
			nw = cur + 1
		}
		if nw > to {
			// Idle through the rest of the span.
			if !out {
				core.SkipIdle(to - cur)
			}
			l1.AdvanceClock(to)
			l2.AdvanceClock(to)
			break
		}
		if gap := nw - cur - 1; gap > 0 {
			if !out {
				core.SkipIdle(gap)
			}
			l1.AdvanceClock(nw - 1)
			l2.AdvanceClock(nw - 1)
		}
		cur = nw
		ticks++
		s.coreCycle[c] = cur
		prev := cur - 1
		if !out {
			if s.coreWakeAt(c, prev) <= cur {
				s.wake[c].stale = true
				core.Tick(cur)
			} else {
				core.SkipIdle(1)
			}
		}
		if s.l1WakeAt(c, prev) <= cur {
			s.wake[l1Slot].stale = true
			l1.Tick(cur)
			if core.BlockedOnL1() && l1.CanAcceptDemand() {
				// Same rule as tickGated: the tick freed the L1 demand
				// capacity the blocked core's cached wakeup probes.
				s.wake[c].stale = true
			}
		} else {
			l1.AdvanceClock(cur)
		}
		if s.l2WakeAt(c, prev) <= cur {
			s.wake[l2Slot].stale = true
			l2.Tick(cur)
		} else {
			l2.AdvanceClock(cur)
		}
		if cd {
			if s.pfWakeAt(c, prev) <= cur {
				s.prefs[c].OnCycle(cur, s.issueFns[c])
			}
		}
	}
	s.coreCycle[c] = to
	return ticks
}
