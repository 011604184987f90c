package rnrsim_test

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each benchmark regenerates its artefact from scratch (workload build +
// all simulations); a single iteration takes seconds, so `go test -bench`
// settles at N=1 per benchmark. Run the full-scale regeneration with
// cmd/experiments instead; these benches exist so `go test -bench=.`
// exercises every experiment end to end and reports its cost.

import (
	"testing"

	"rnrsim"
	"rnrsim/internal/apps"
	"rnrsim/internal/bench"
	"rnrsim/internal/multicore"
	"rnrsim/internal/obs"
	"rnrsim/internal/sim"
)

func newSuite() *bench.Suite {
	s := bench.NewSuite(apps.ScaleTest)
	s.Config = sim.Test()
	return s
}

func runExperiment(b *testing.B, f func(*bench.Suite) *bench.Table) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := newSuite()
		t := f(s)
		if len(t.Rows) == 0 {
			b.Fatalf("%s produced no rows", t.ID)
		}
	}
}

func BenchmarkFig1(b *testing.B)  { runExperiment(b, (*bench.Suite).Fig1) }
func BenchmarkFig6(b *testing.B)  { runExperiment(b, (*bench.Suite).Fig6) }
func BenchmarkFig7(b *testing.B)  { runExperiment(b, (*bench.Suite).Fig7) }
func BenchmarkFig8(b *testing.B)  { runExperiment(b, (*bench.Suite).Fig8) }
func BenchmarkFig9(b *testing.B)  { runExperiment(b, (*bench.Suite).Fig9) }
func BenchmarkFig10(b *testing.B) { runExperiment(b, (*bench.Suite).Fig10) }
func BenchmarkFig11(b *testing.B) { runExperiment(b, (*bench.Suite).Fig11) }
func BenchmarkFig12(b *testing.B) { runExperiment(b, (*bench.Suite).Fig12) }
func BenchmarkFig13(b *testing.B) { runExperiment(b, (*bench.Suite).Fig13) }
func BenchmarkFig14(b *testing.B) { runExperiment(b, (*bench.Suite).Fig14) }

func BenchmarkTableII(b *testing.B)  { runExperiment(b, (*bench.Suite).TableII) }
func BenchmarkTableIII(b *testing.B) { runExperiment(b, (*bench.Suite).TableIII) }
func BenchmarkTableIV(b *testing.B)  { runExperiment(b, (*bench.Suite).TableIV) }

func BenchmarkRecordOverhead(b *testing.B) { runExperiment(b, (*bench.Suite).RecordOverhead) }
func BenchmarkHardwareOverhead(b *testing.B) {
	runExperiment(b, (*bench.Suite).HardwareOverhead)
}

// BenchmarkSimulatorThroughput measures raw simulation speed (cycles/sec)
// on the PageRank/urand baseline — useful when tuning the simulator. The
// /obs variant attaches the prefetch-lifecycle flight recorder so its
// overhead is tracked in the perf trajectory next to the base number;
// the base variant's nil Obs is the parity gate (one pointer compare).
//
// The sub-benchmarks split along two axes:
//
//   - engine: the default event-driven scheduler vs /stepped
//     (ForceCycleStepped), so the perf trajectory records both and CI can
//     gate on their ratio.
//   - regime: base is dense (PageRank keeps some component busy ~90% of
//     cycles, so event-driven wins only by per-component tick gating);
//     /ctxswitch injects the paper's §IV-C descheduling with a realistic
//     out:in ratio, the idle-heavy regime next-event scheduling exists
//     for, where the event engine leaps whole descheduled windows.
//
// Besides cycles/s every variant reports two deterministic work counters
// of the scheduler, per simulated cycle: ticked/cycle (cycles actually
// simulated) and wake_evals/cycle (component wakeups evaluated). They do
// not depend on the host, so a change in them is a change in the
// scheduler's work, not runner noise.
func BenchmarkSimulatorThroughput(b *testing.B) {
	app, err := rnrsim.BuildWorkload("pagerank", "urand", rnrsim.ScaleTest)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, mutate func(*rnrsim.MachineConfig)) {
		b.ResetTimer()
		var w work
		for i := 0; i < b.N; i++ {
			cfg := rnrsim.TestMachine()
			if mutate != nil {
				mutate(&cfg)
			}
			w.simulate(b, cfg, app)
		}
		w.report(b)
	}
	ctxHeavy := func(cfg *rnrsim.MachineConfig) {
		cfg.CtxSwitch = sim.CtxSwitchConfig{Period: 20_000, Duration: 1_000_000}
	}
	b.Run("base", func(b *testing.B) { run(b, nil) })
	b.Run("obs", func(b *testing.B) {
		run(b, func(cfg *rnrsim.MachineConfig) { cfg.Obs = &obs.Config{} })
	})
	b.Run("stepped", func(b *testing.B) {
		run(b, func(cfg *rnrsim.MachineConfig) { cfg.ForceCycleStepped = true })
	})
	b.Run("ctxswitch", func(b *testing.B) { run(b, ctxHeavy) })
	b.Run("ctxswitch-stepped", func(b *testing.B) {
		run(b, func(cfg *rnrsim.MachineConfig) {
			ctxHeavy(cfg)
			cfg.ForceCycleStepped = true
		})
	})

	// The /2core pair measures the full multicore machine — a composed
	// PageRank+spCG co-run behind the coherence directory, a 2-bank LLC
	// and the cross-core prefetcher — on both engines, so the perf
	// trajectory tracks what the coherent path costs relative to /base.
	coApp, err := multicore.Compose(rnrsim.ScaleTest, []multicore.JobSpec{
		{Workload: "pagerank", Input: "urand"},
		{Workload: "spcg", Input: "bbmat"},
	})
	if err != nil {
		b.Fatal(err)
	}
	run2 := func(b *testing.B, stepped bool) {
		b.ResetTimer()
		var w work
		for i := 0; i < b.N; i++ {
			cfg := rnrsim.TestMachine()
			cfg.Cores = 2
			cfg.Coherence = true
			cfg.LLCBanks = 2
			cfg.CrossCore = true
			cfg.ForceCycleStepped = stepped
			w.simulate(b, cfg, coApp)
		}
		w.report(b)
	}
	b.Run("2core", func(b *testing.B) { run2(b, false) })
	b.Run("2core-stepped", func(b *testing.B) { run2(b, true) })
}

// work accumulates a throughput benchmark's simulated cycles and the
// scheduler's deterministic work counters over its iterations.
type work struct{ cycles, ticked, evals uint64 }

// simulate runs one simulation to completion and adds its counts.
func (w *work) simulate(b *testing.B, cfg rnrsim.MachineConfig, app *rnrsim.Workload) {
	s, err := sim.New(cfg, app)
	if err != nil {
		b.Fatal(err)
	}
	r, err := s.RunAll()
	if err != nil {
		b.Fatal(err)
	}
	w.cycles += r.Cycles
	w.ticked += s.TickedCycles()
	w.evals += s.WakeEvals()
}

func (w *work) report(b *testing.B) {
	b.ReportMetric(float64(w.cycles)/b.Elapsed().Seconds(), "cycles/s")
	b.ReportMetric(float64(w.ticked)/float64(w.cycles), "ticked/cycle")
	b.ReportMetric(float64(w.evals)/float64(w.cycles), "wake_evals/cycle")
}

// BenchmarkRnRReplay measures the full RnR pipeline (record + replay);
// the /obs variant adds lifecycle tracking plus the divergence probes,
// the heaviest instrumented configuration.
func BenchmarkRnRReplay(b *testing.B) {
	app, err := rnrsim.BuildWorkload("pagerank", "urand", rnrsim.ScaleTest)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, obsCfg *obs.Config) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := rnrsim.TestMachine()
			cfg.Prefetcher = rnrsim.RnR
			cfg.Obs = obsCfg
			if _, err := rnrsim.Simulate(cfg, app); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("base", func(b *testing.B) { run(b, nil) })
	b.Run("obs", func(b *testing.B) { run(b, &obs.Config{}) })
}
