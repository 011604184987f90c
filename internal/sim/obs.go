package sim

import (
	"fmt"

	"rnrsim/internal/obs"
	"rnrsim/internal/rnr"
)

// registerObs builds the flight recorder and attaches one lifecycle
// view per prefetch destination plus a divergence probe per RnR engine.
// Called once from New, before registerTelemetry (so the telemetry
// layer can register divergence probes) and before registerAudit (so
// the audit layer can watch the recorder's counters). A nil cfg.Obs
// leaves s.obsRec nil — the disabled path is one pointer compare per
// cache event, the same discipline as telemetry and audit.
//
// Views attach where prefetches are issued (see issueFunc): the shared
// LLC under the §III destination ablation, each private L2 otherwise.
// Prefetch children that a miss propagates to lower levels carry a
// completion callback and are not counted — the lifecycle of a prefetch
// belongs to the level it was issued into.
func (s *System) registerObs() {
	if s.cfg.Obs == nil {
		return
	}
	s.obsRec = obs.NewRecorder(*s.cfg.Obs)
	if s.cfg.RnRPrefetchToLLC || s.cfg.CrossCore {
		// Prefetches land in the shared LLC (destination ablation or the
		// cooperative cross-core prefetcher): one view per bank, with the
		// single-bank machine keeping the historical "llc" view name.
		for b := range s.llcs {
			name := "llc"
			if len(s.llcs) > 1 {
				name = fmt.Sprintf("llc.b%d", b)
			}
			s.llcs[b].Lifecycle = s.obsRec.View(name)
		}
	}
	if !s.cfg.RnRPrefetchToLLC {
		for c := range s.l2s {
			s.l2s[c].Lifecycle = s.obsRec.View(fmt.Sprintf("l2.%d", c))
		}
	}
	for _, e := range s.engines {
		if e != nil {
			e.AttachDivergence(&rnr.DivergenceProbe{})
		}
	}
}

// collectObs finalizes the flight recorder and builds Result.Obs:
// the lifecycle summary plus the divergence windows gathered from
// every engine in core order.
func (s *System) collectObs(r *Result) {
	if s.obsRec == nil {
		return
	}
	s.obsRec.Finalize(s.clock.Cycle)
	sum := s.obsRec.Summarize()
	probes := make([]*rnr.DivergenceProbe, len(s.engines))
	for c, e := range s.engines {
		if e != nil {
			probes[c] = e.Divergence()
		}
	}
	rnr.ExportDivergence(sum, probes)
	r.Obs = sum
}
