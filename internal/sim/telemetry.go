package sim

import "fmt"

// registerTelemetry hands the recorder to every component and registers
// the system-level aggregate series. Called once from New; a nil recorder
// makes the whole function a no-op and leaves every component's telemetry
// pointer nil, which is the zero-overhead disabled path.
//
// Probe catalog (see DESIGN.md "Observability" for the full schema):
//
//	sim.ipc               aggregate retired IPC over the sample interval
//	l2.mpki               aggregate L2 demand MPKI over the interval
//	rnr.replay_distance   mean prefetch-cursor lead, in seq entries
//	rnr.window_slack      mean headroom before the window gate
//	rnr.pace_error        mean distance from the pace-control target
//	cpu<N>.*              per-core ipc / rob / lsq
//	l2.<N>.* llc.*        per-cache mshr / queue occupancy / miss_rate
//	dram.*                queue occupancy, row_hit_rate, bus_util
func (s *System) registerTelemetry() {
	tel := s.tel
	if tel == nil {
		return
	}
	for c := range s.cores {
		s.cores[c].RegisterProbes(tel, fmt.Sprintf("cpu%d.", c))
		s.l2s[c].RegisterProbes(tel, fmt.Sprintf("l2.%d.", c))
		if e := s.engines[c]; e != nil {
			e.SetTelemetry(tel, fmt.Sprintf("rnr.c%d", c))
			e.RegisterProbes(tel, fmt.Sprintf("rnr.c%d.", c))
		}
	}
	if len(s.llcs) == 1 {
		s.llcs[0].RegisterProbes(tel, "llc.")
	} else {
		for b := range s.llcs {
			s.llcs[b].RegisterProbes(tel, fmt.Sprintf("llc.b%d.", b))
		}
	}
	s.mc.RegisterProbes(tel, "dram.")

	// Aggregates: windowed deltas across all cores, one closure state per
	// probe (each probe is polled exactly once per sample).
	var lastCycle, lastInstr uint64
	tel.Probe("sim.ipc", func(cycle uint64) float64 {
		var instr uint64
		for c := range s.cores {
			instr += s.cores[c].Stats.Instructions
		}
		dc := cycle - lastCycle
		di := instr - lastInstr
		lastCycle, lastInstr = cycle, instr
		if dc == 0 {
			return 0
		}
		return float64(di) / float64(dc)
	})
	var lastInstr2, lastMiss uint64
	tel.Probe("l2.mpki", func(uint64) float64 {
		var instr, miss uint64
		for c := range s.cores {
			instr += s.cores[c].Stats.Instructions
			miss += s.l2s[c].Stats.DemandMisses
		}
		di := instr - lastInstr2
		dm := miss - lastMiss
		lastInstr2, lastMiss = instr, miss
		if di == 0 {
			return 0
		}
		return float64(dm) / float64(di) * 1000
	})
	engineMean := func(f func(i int) int) float64 {
		var sum, n float64
		for c := range s.engines {
			if s.engines[c] != nil {
				sum += float64(f(c))
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / n
	}
	tel.Probe("rnr.replay_distance", func(uint64) float64 {
		return engineMean(func(c int) int { return s.engines[c].ReplayDistance() })
	})
	tel.Probe("rnr.window_slack", func(uint64) float64 {
		return engineMean(func(c int) int { return s.engines[c].WindowSlack() })
	})
	tel.Probe("rnr.pace_error", func(uint64) float64 {
		return engineMean(func(c int) int { return s.engines[c].PaceError() })
	})
}
