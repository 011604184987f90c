package sim

import (
	"rnrsim/internal/rnr"
	"rnrsim/internal/trace"
)

// Context-switch injection (§IV-C): the OS periodically deschedules the
// workload. While switched out, the process's cache contents are evicted
// by whoever runs in its place; on switch-in, a conventional prefetcher's
// training state belongs to the other process and must retrain, whereas
// RnR saves its 86.5 B of registers, keeps its metadata in (the
// process's own) memory, and resumes exactly where it paused.

// CtxSwitchConfig enables periodic context switches.
type CtxSwitchConfig struct {
	// Period is the descheduling interval in cycles; 0 disables.
	Period uint64
	// Duration is how long the process stays switched out.
	Duration uint64
}

// ctxSwitch is the runtime state of the injector.
type ctxSwitch struct {
	cfg      CtxSwitchConfig
	nextAt   uint64
	resumeAt uint64
	out      bool
	outStart uint64 // cycle of the current switch-out, for trace spans
	switches uint64
	saved    []rnr.SavedState // per-core RnR snapshots while switched out
	hasSaved []bool
}

func newCtxSwitch(cfg CtxSwitchConfig) *ctxSwitch {
	return &ctxSwitch{cfg: cfg, nextAt: cfg.Period}
}

// tick drives the switch state machine.
func (cs *ctxSwitch) tick(s *System, now uint64) {
	switch {
	case cs.cfg.Period == 0:
	case cs.out && now >= cs.resumeAt:
		cs.switchIn(s, now)
	case !cs.out && now >= cs.nextAt:
		cs.switchOut(s, now)
	}
}

// wakeup reports the next cycle at which the state machine transitions:
// the scheduled switch-in while descheduled, the next switch-out
// otherwise. A Duration of 0 makes resumeAt == the switch-out cycle — a
// genuine in-the-past wakeup that the scheduler must clamp to now+1.
func (cs *ctxSwitch) wakeup() uint64 {
	if cs.cfg.Period == 0 {
		return WakeupNever
	}
	if cs.out {
		return cs.resumeAt
	}
	return cs.nextAt
}

func (cs *ctxSwitch) switchOut(s *System, now uint64) {
	cs.out = true
	cs.outStart = now
	cs.resumeAt = now + cs.cfg.Duration
	cs.switches++
	cs.saved = cs.saved[:0]
	cs.hasSaved = cs.hasSaved[:0]
	for c := range s.cores {
		// A descheduled core's cycles are not charged to it.
		s.cores[c].SwitchOut()
		// The OS pauses an active record/replay (§IV-C) and saves the
		// architectural + internal registers.
		if e := s.engines[c]; e != nil {
			e.HandleMarker(trace.Mark(trace.MarkPause, 0, 0, 0), now)
			cs.saved = append(cs.saved, e.Save())
			cs.hasSaved = append(cs.hasSaved, true)
		} else {
			cs.saved = append(cs.saved, rnr.SavedState{})
			cs.hasSaved = append(cs.hasSaved, false)
		}
	}
}

func (cs *ctxSwitch) switchIn(s *System, now uint64) {
	cs.out = false
	cs.nextAt = now + cs.cfg.Period
	// One span per descheduling episode (nil-safe when telemetry is off).
	s.tel.Span("sched", "switched-out", cs.outStart, now)
	for c := range s.cores {
		s.cores[c].SwitchIn()
		// The other process polluted the private caches.
		s.l1s[c].InvalidateAll()
		s.l2s[c].InvalidateAll()
		if e := s.engines[c]; e != nil {
			// RnR restores its registers and resumes; the metadata lives
			// in the process's heap and survived untouched.
			if cs.hasSaved[c] {
				e.Restore(cs.saved[c])
			}
			e.HandleMarker(trace.Mark(trace.MarkResume, 0, 0, 0), now)
		} else {
			// A conventional prefetcher's tables were trained by (and
			// shared with) whoever ran meanwhile: model the paper's
			// "needs retraining" by resetting it. The L2 hooks resolve
			// the prefetcher dynamically, so swapping the instance is
			// enough.
			s.wirePrefetcher(c)
		}
	}
	for _, llc := range s.llcs {
		// The LLC is shared; the other process evicted this one's share.
		llc.InvalidateAll()
	}
	if s.dir != nil {
		// InvalidateAll bypasses the per-line eviction hooks, so the
		// directory's sharer masks would go stale; drop them wholesale to
		// match the now-empty tag arrays.
		s.dir.Reset()
	}
	if s.xcore != nil {
		// The shared correlation table was trained by whoever ran
		// meanwhile — same retraining rule as the per-core prefetchers.
		s.xcore.Reset()
	}
}
