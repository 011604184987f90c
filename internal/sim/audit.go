package sim

import (
	"fmt"
	"sort"

	"rnrsim/internal/audit"
	"rnrsim/internal/mem"
)

// registerAudit builds the invariant checker and registers every
// component's laws. Called once from New; a nil cfg.Audit leaves s.aud
// nil, which is the zero-overhead disabled path (one pointer compare
// per Tick, matching the telemetry pattern).
//
// Laws checked per sweep (see DESIGN.md "Correctness auditing"):
//
//	cpu<N>       ROB/LSQ occupancy and ring geometry, dispatch registers
//	cpu<N>/lsq   LSQ slots == demand requests held by the private L1
//	l1.<N> l2.<N> llc  queue caps, MSHR conservation, demand accounting,
//	             ring-deque integrity
//	rnr.c<N>     replay cursor geometry, metadata credits, division-table
//	             monotonicity, footprint consistency, prefetch
//	             classification, Cur Window episode monotonicity, and
//	             cumulative-counter monotonicity of rnr.Stats
//	rnr.c<N>/l2  useful + late + early + out-of-window <= issued (RnR
//	             alone only: rnr-combined shares the L2 counters with
//	             next-line, the LLC-destination ablation bypasses the L2)
//	dram         queue caps, read conservation, traffic-class accounting,
//	             row-buffer accounting, bank-register sanity
//	obs          flight-recorder conservation (issued == sum of outcomes
//	             + open) and outcome-counter monotonicity
//	obs/div.c<N> divergence-counter monotonicity, compared <= observed,
//	             unmatched <= compared
func (s *System) registerAudit() {
	if s.cfg.Audit == nil {
		return
	}
	s.aud = audit.New()
	s.auditEvery = s.cfg.Audit.EffectiveInterval()

	for c := range s.cores {
		core, l1 := s.cores[c], s.l1s[c]
		s.aud.Register(fmt.Sprintf("cpu%d", c), core.AuditInvariants)
		s.aud.Register(fmt.Sprintf("cpu%d/lsq", c), func(report func(string)) {
			_, lsq := core.Occupancy()
			if held := l1.AuditDemandHolds(); held != lsq {
				report(fmt.Sprintf("LSQ conservation: %d slots used != %d demand requests held by L1", lsq, held))
			}
		})
		s.aud.Register(fmt.Sprintf("l1.%d", c), s.l1s[c].AuditInvariants)
		s.aud.Register(fmt.Sprintf("l2.%d", c), s.l2s[c].AuditInvariants)
		if e := s.engines[c]; e != nil {
			a := e.NewAuditor()
			// SeqTableBytes/DivTableBytes are footprint gauges recomputed
			// at each record finalization, not cumulative counters.
			mono := audit.NewMonotone("SeqTableBytes", "DivTableBytes")
			eng := e
			s.aud.Register(fmt.Sprintf("rnr.c%d", c), func(report func(string)) {
				a.Check(report)
				mono.Check(&eng.Stats, report)
			})
			if s.cfg.Prefetcher == PFRnR && !s.cfg.RnRPrefetchToLLC {
				// With RnR alone prefetching into the L2, the engine's
				// replay prefetches are the only prefetch traffic there,
				// so the four timeliness classes partition a subset of
				// the issued prefetches.
				l2 := s.l2s[c]
				s.aud.Register(fmt.Sprintf("rnr.c%d/l2", c), func(report func(string)) {
					classified := l2.Stats.PrefetchUseful + l2.Stats.PrefetchLate +
						eng.Stats.EarlyPrefetches + eng.Stats.OutOfWindow
					if classified > eng.Stats.Prefetches {
						report(fmt.Sprintf(
							"classification: useful %d + late %d + early %d + out-of-window %d > issued %d",
							l2.Stats.PrefetchUseful, l2.Stats.PrefetchLate,
							eng.Stats.EarlyPrefetches, eng.Stats.OutOfWindow, eng.Stats.Prefetches))
					}
				})
			}
		}
	}
	if len(s.llcs) == 1 {
		s.aud.Register("llc", s.llcs[0].AuditInvariants)
	} else {
		for b := range s.llcs {
			s.aud.Register(fmt.Sprintf("llc.b%d", b), s.llcs[b].AuditInvariants)
		}
	}
	if s.dir != nil {
		s.aud.Register("coherence", func(report func(string)) {
			// Directory-internal laws (single-M owner, no empty or
			// Invalid entries) plus the inclusion law sharer-mask ⊇
			// actual holders, with the holder masks swept from the
			// private tag arrays.
			holders := make(map[mem.Addr]uint64)
			for c := range s.cores {
				bit := uint64(1) << uint(c)
				s.l1s[c].ForEachResident(func(line mem.Addr) { holders[line] |= bit })
				s.l2s[c].ForEachResident(func(line mem.Addr) { holders[line] |= bit })
			}
			s.dir.AuditInvariants(func(line mem.Addr) uint64 { return holders[line] }, report)
			// The dual direction, no stale-line demand hits, is counted
			// on the L1 access path (see wireCoherence): a demand hit on
			// a line the directory does not credit to the hitting core.
			if s.staleHits > 0 {
				report(fmt.Sprintf("%d demand hits on lines outside the directory's sharer masks", s.staleHits))
			}
		})
	}
	s.aud.Register("dram", s.mc.AuditInvariants)
	if rec := s.obsRec; rec != nil {
		// The flight recorder's conservation law (every prefetch has
		// exactly one outcome) plus monotonicity of its outcome counters
		// and of each engine's divergence counters.
		mono := audit.NewMonotone()
		s.aud.Register("obs", func(report func(string)) {
			rec.CheckInvariants(report)
			st := rec.Stats()
			mono.Check(&st, report)
		})
		for c := range s.engines {
			e := s.engines[c]
			if e == nil || e.Divergence() == nil {
				continue
			}
			divMono := audit.NewMonotone()
			p := e.Divergence()
			s.aud.Register(fmt.Sprintf("obs/div.c%d", c), func(report func(string)) {
				divMono.Check(&p.Stats, report)
				if p.Stats.UnmatchedMisses > p.Stats.ComparedMisses {
					report(fmt.Sprintf("divergence: unmatched %d > compared %d",
						p.Stats.UnmatchedMisses, p.Stats.ComparedMisses))
				}
				if p.Stats.ComparedMisses > p.Stats.ObservedMisses {
					report(fmt.Sprintf("divergence: compared %d > observed %d",
						p.Stats.ComparedMisses, p.Stats.ObservedMisses))
				}
			})
		}
	}
}

// Audit returns the invariant checker attached at construction (nil
// when auditing is disabled). Tests use it to inspect violations
// beyond the summary error.
func (s *System) Audit() *audit.Checker { return s.aud }

// stateHash folds the architectural state of every simulated component
// — core ROB/LSQ and dispatch registers, cache tag arrays with
// LRU/dirty state, queues and MSHRs, the DRAM controller's banks and
// queues, and the RnR engines' registers, metadata tables and stats —
// into one FNV-1a digest. It runs once per run in collect (never on the
// tick path) and is independent of the audit configuration, so audited
// and unaudited runs of the same key produce identical results.
func (s *System) stateHash() uint64 {
	h := audit.NewHash()
	mix := h.Mix()
	mix(s.cycle)
	for c := range s.cores {
		s.cores[c].HashState(mix)
		s.l1s[c].HashState(mix)
		s.l2s[c].HashState(mix)
		if e := s.engines[c]; e != nil {
			e.HashState(mix)
		}
	}
	for _, llc := range s.llcs {
		llc.HashState(mix)
	}
	if s.xcore != nil {
		// Folded only when the cross-core prefetcher is attached, so
		// configurations without it keep their historical hashes.
		s.xcore.HashState(mix)
	}
	if s.ideal != nil {
		s.ideal.HashState(mix)
	}
	s.mc.HashState(mix)
	// Group 0's iteration stamps occupy the historical fold position;
	// extra barrier groups (composed co-runs only) fold after. The
	// coherence directory is deliberately excluded: its observable
	// effects are already hashed through the private tag arrays, and
	// with one core it can never act — which is exactly what keeps a
	// 1-core coherence-enabled machine hash-identical (see
	// internal/coherence).
	mix(uint64(len(s.iterEnd[0])))
	for _, v := range s.iterEnd[0] {
		mix(v)
	}
	for g := 1; g < len(s.iterEnd); g++ {
		mix(uint64(len(s.iterEnd[g])))
		for _, v := range s.iterEnd[g] {
			mix(v)
		}
	}
	return h.Sum()
}

// coreHashes folds each core's private domain — core, L1, L2, RnR
// engine — into its own digest, so a multi-programmed run can compare
// one core's final state against the same program's solo run (the idle
// cores of a partially loaded machine fold empty caches into the
// combined hash, which per-core digests see through).
func (s *System) coreHashes() []uint64 {
	out := make([]uint64, len(s.cores))
	for c := range s.cores {
		h := audit.NewHash()
		mix := h.Mix()
		s.cores[c].HashState(mix)
		s.l1s[c].HashState(mix)
		s.l2s[c].HashState(mix)
		if e := s.engines[c]; e != nil {
			e.HashState(mix)
		}
		out[c] = h.Sum()
	}
	return out
}

// HashState folds the ideal LLC's state: the resident set (sorted — the
// map has no deterministic order) and the buffered hits.
func (c *idealLLC) HashState(mix func(uint64)) {
	lines := make([]mem.Addr, 0, len(c.resident))
	for l := range c.resident {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	mix(uint64(len(lines)))
	for _, l := range lines {
		mix(uint64(l))
	}
	mix(uint64(len(c.pending)))
	for _, p := range c.pending {
		mix(p.finish)
		mix(uint64(p.req.Line))
	}
}
