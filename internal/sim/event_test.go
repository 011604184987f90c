package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"rnrsim/internal/audit"
	"rnrsim/internal/obs"
	"rnrsim/internal/telemetry"

	"rnrsim/internal/apps"
)

// exportBytes serialises the full export envelope; the export clock must
// already be pinned by the caller so generated_at cannot differ.
func exportBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.MarshalIndent(r.Export(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runEngine builds and runs one system, returning the result and the
// system itself (for TickedCycles / internals).
func runEngine(t *testing.T, cfg Config, app *apps.App, stepped bool) (*Result, *System) {
	t.Helper()
	cfg.ForceCycleStepped = stepped
	s, err := New(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	return r, s
}

// requireIdentical runs cfg under both engines and fails unless the
// final Result — state hash included — serialises to byte-identical
// export envelopes. This is the tentpole's correctness bar: the
// event-driven scheduler may only skip cycles that are provably inert,
// so no architectural or statistical state is allowed to differ.
// Callers must pin the export clock (fixedExportClock) first — in the
// parent test when subtests run in parallel, so the global is not
// mutated while children are in flight.
func requireIdentical(t *testing.T, cfg Config, app *apps.App) (*System, *System) {
	t.Helper()
	re, se := runEngine(t, cfg, app, false)
	rs, ss := runEngine(t, cfg, app, true)
	if re.StateHash != rs.StateHash {
		t.Errorf("state hash: event %016x != stepped %016x", re.StateHash, rs.StateHash)
	}
	be, bs := exportBytes(t, re), exportBytes(t, rs)
	if !bytes.Equal(be, bs) {
		t.Errorf("export envelope differs between engines\nevent:   %s\nstepped: %s", be, bs)
	}
	return se, ss
}

// telemetrySeries runs cfg on one engine with a telemetry recorder
// sampling every interval cycles and returns its metrics JSONL.
func telemetrySeries(t *testing.T, cfg Config, app *apps.App, stepped bool, interval uint64) []byte {
	t.Helper()
	rec := telemetry.New(telemetry.Config{SampleInterval: interval})
	cfg.Telemetry = rec
	runEngine(t, cfg, app, stepped)
	var buf bytes.Buffer
	if err := rec.WriteMetricsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEventSteppedDifferentialMatrix sweeps the configurations whose
// wakeup paths differ — every prefetcher family (demand-trained and
// cycle-driven), audit sweeps, the
// lifecycle observer, the ideal-LLC bar, context switching, banked LLCs,
// the uncoherent co-run with the cross-core prefetcher and the 1-core
// machine — and holds the two engines to byte-identical export
// envelopes and telemetry JSONL on each.
func TestEventSteppedDifferentialMatrix(t *testing.T) {
	fixedExportClock(t, time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC))
	app := testApp(t)
	type tcase struct {
		name string
		cfg  Config
		app  *apps.App // nil = the 4-core PageRank testApp
	}
	cases := []tcase{
		{name: "none", cfg: testConfig().WithPrefetcher(PFNone)},
		{name: "nextline", cfg: testConfig().WithPrefetcher(PFNextLine)},
		{name: "stream", cfg: testConfig().WithPrefetcher(PFStream)},
		{name: "misb", cfg: testConfig().WithPrefetcher(PFMISB)},
		{name: "droplet", cfg: testConfig().WithPrefetcher(PFDroplet)},
		{name: "rnr", cfg: testConfig().WithPrefetcher(PFRnR)},
		{name: "rnr-combined", cfg: testConfig().WithPrefetcher(PFRnRCombined)},
	}

	audited := testConfig().WithPrefetcher(PFRnR)
	audited.Audit = &audit.Config{Interval: 256}
	cases = append(cases, tcase{name: "rnr+audit", cfg: audited})

	observed := testConfig().WithPrefetcher(PFRnR)
	observed.Obs = &obs.Config{}
	cases = append(cases, tcase{name: "rnr+obs", cfg: observed})

	ideal := testConfig().WithPrefetcher(PFNone)
	ideal.IdealLLC = true
	cases = append(cases, tcase{name: "ideal-llc", cfg: ideal})

	ctxCfg := testConfig().WithPrefetcher(PFRnR)
	ctxCfg.CtxSwitch = CtxSwitchConfig{Period: 20_000, Duration: 7_000}
	cases = append(cases, tcase{name: "rnr+ctx", cfg: ctxCfg})

	banked := testConfig().WithPrefetcher(PFNextLine)
	banked.LLCBanks = 2
	cases = append(cases, tcase{name: "nextline+2banks", cfg: banked})

	// The co-run machine minus the coherence directory: RnR on both
	// private L2s, a banked LLC and the cross-core prefetcher over two
	// free-running jobs. TestCoRunEngineDifferential covers the coherent
	// one.
	uncoherent := coRunConfig()
	uncoherent.Coherence = false
	cases = append(cases, tcase{name: "corun-uncoherent", cfg: uncoherent, app: coRunApp(t)})

	solo := apps.DefaultConfig()
	solo.Cores = 1
	oneCoreApp, err := apps.BuildConfig("pagerank", "urand", apps.ScaleTest, solo)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, tcase{name: "one-core", cfg: oneCoreConfig().WithPrefetcher(PFRnR), app: oneCoreApp})

	for _, tc := range cases {
		tc := tc
		if tc.app == nil {
			tc.app = app
		}
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			requireIdentical(t, tc.cfg, tc.app)
			ev := telemetrySeries(t, tc.cfg, tc.app, false, 1000)
			st := telemetrySeries(t, tc.cfg, tc.app, true, 1000)
			if !bytes.Equal(ev, st) {
				t.Errorf("telemetry JSONL differs between engines\nevent:   %.512s\nstepped: %.512s", ev, st)
			}
		})
	}
}

// TestEventEngineSkipsCycles pins that the event engine actually skips:
// on an idle-heavy run (long descheduled windows) it must simulate far
// fewer cycles than it reports, while the stepped engine ticks them all.
func TestEventEngineSkipsCycles(t *testing.T) {
	app := testApp(t)
	cfg := testConfig().WithPrefetcher(PFNone)
	cfg.CtxSwitch = CtxSwitchConfig{Period: 10_000, Duration: 100_000}

	re, se := runEngine(t, cfg, app, false)
	if se.TickedCycles() >= re.Cycles {
		t.Errorf("event engine ticked %d of %d cycles; expected skipping", se.TickedCycles(), re.Cycles)
	}
	rs, ss := runEngine(t, cfg, app, true)
	if ss.TickedCycles() != rs.Cycles {
		t.Errorf("stepped engine ticked %d of %d cycles; must tick all", ss.TickedCycles(), rs.Cycles)
	}
	if re.StateHash != rs.StateHash {
		t.Errorf("state hash: event %016x != stepped %016x", re.StateHash, rs.StateHash)
	}
}

// TestSchedulerWorkCounters pins the diagnostics-only work counters on a
// dense run: they repeat exactly from run to run (so benchmarks can gate
// them independently of the host), the event engine's counts equal the
// values pinned below, and the stepped engine, which consults no
// wakeups, evaluates none. A change to either pinned value is a change
// to the event engine's work, not noise: re-pin it only together with a
// deliberate scheduler change.
func TestSchedulerWorkCounters(t *testing.T) {
	const (
		wantCycles    = 129132
		wantTicked    = 124757
		wantWakeEvals = 1055820
	)
	app := testApp(t)
	cfg := testConfig().WithPrefetcher(PFRnR)
	r1, s1 := runEngine(t, cfg, app, false)
	_, s2 := runEngine(t, cfg, app, false)
	if s1.TickedCycles() != s2.TickedCycles() || s1.WakeEvals() != s2.WakeEvals() {
		t.Errorf("work counters differ between identical runs: ticked %d/%d, wake evals %d/%d",
			s1.TickedCycles(), s2.TickedCycles(), s1.WakeEvals(), s2.WakeEvals())
	}
	if r1.Cycles != wantCycles || s1.TickedCycles() != wantTicked || s1.WakeEvals() != wantWakeEvals {
		t.Errorf("event engine: %d cycles, ticked %d, %d wake evals; want %d, %d, %d",
			r1.Cycles, s1.TickedCycles(), s1.WakeEvals(), wantCycles, wantTicked, wantWakeEvals)
	}
	rs, ss := runEngine(t, cfg, app, true)
	if ss.WakeEvals() != 0 {
		t.Errorf("stepped engine evaluated %d wakeups", ss.WakeEvals())
	}
	if rs.StateHash != r1.StateHash {
		t.Errorf("state hash: event %016x != stepped %016x", r1.StateHash, rs.StateHash)
	}
}

// TestTelemetrySampleCyclesIdentical is the sampler-jump regression: the
// event engine lands on cycles past a sampleEvery multiple, and the
// sampler must still stamp the exact multiples the stepped engine does.
// The whole JSONL series — stamps and values — must be byte-identical.
func TestTelemetrySampleCyclesIdentical(t *testing.T) {
	app := testApp(t)
	const interval = 1000
	cfg := testConfig().WithPrefetcher(PFRnR)
	ev, st := telemetrySeries(t, cfg, app, false, interval), telemetrySeries(t, cfg, app, true, interval)
	if !bytes.Equal(ev, st) {
		t.Errorf("telemetry JSONL differs between engines\nevent:   %.512s\nstepped: %.512s", ev, st)
	}
	// And the stamps sit on the sample grid (bar the final post-drain row).
	lines := bytes.Split(bytes.TrimSpace(ev), []byte("\n"))
	for i, ln := range lines {
		var row map[string]float64
		if err := json.Unmarshal(ln, &row); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		if c := uint64(row["cycle"]); c%interval != 0 && i != len(lines)-1 {
			t.Errorf("row %d stamped off-grid cycle %d (interval %d)", i, c, interval)
		}
	}
}

// legacyDone is the original unmemoised predicate, kept verbatim (and
// side-effect free) as the reference for the Done regression test.
func (s *System) legacyDone() bool {
	for _, c := range s.cores {
		if !c.Done() {
			return false
		}
	}
	for i := range s.l1s {
		if s.l1s[i].Pending() > 0 || s.l2s[i].Pending() > 0 {
			return false
		}
	}
	for _, llc := range s.llcs {
		if llc.Pending() > 0 {
			return false
		}
	}
	return s.mc.Pending() == 0
}

// TestDoneMatchesLegacyPredicate is the System.Done regression: the
// memoised predicate must agree with the original O(components) rescan
// at every step of a run, including the final drained state.
func TestDoneMatchesLegacyPredicate(t *testing.T) {
	fc := audit.FuzzConfig{Seed: 11}.WithDefaults()
	s, err := New(fuzzMachine(fc.Cores).WithPrefetcher(PFRnR), audit.Fuzz(fc))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2_000_000; step++ {
		legacy := s.legacyDone()
		if got := s.Done(); got != legacy {
			t.Fatalf("cycle %d: Done() = %v, legacy predicate = %v", s.Cycle(), got, legacy)
		}
		if legacy {
			return
		}
		s.Tick()
	}
	t.Fatal("run did not drain within 2M cycles")
}

// TestNextWakeupClampsPastEvents pins the "wakeup in the past" contract:
// an event cycle at or before now must be treated as "now" (simulate the
// next cycle), never returned as-is (which would wedge advanceTo) and
// never skipped past.
func TestNextWakeupClampsPastEvents(t *testing.T) {
	app := testApp(t)
	cfg := testConfig().WithPrefetcher(PFNone)
	rec := telemetry.New(telemetry.Config{SampleInterval: 500})
	cfg.Telemetry = rec
	s, err := New(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		s.Tick()
	}
	// Force a sample event 100 cycles in the past; the scheduler must
	// clamp it to the very next cycle rather than jumping backwards.
	s.nextSampleAt = s.cycle - 100
	if next := s.nextWakeup(s.cycle + 10_000); next != s.cycle+1 {
		t.Errorf("nextWakeup with past sample event = %d, want %d", next, s.cycle+1)
	}
	s.nextSampleAt = s.cycle - s.cycle%s.sampleEvery + s.sampleEvery

	// And across a driven run, the scheduler never stalls or reverses.
	for i := 0; i < 2_000 && !s.Done(); i++ {
		next := s.nextWakeup(s.cycle + CancelCheckInterval)
		if next <= s.cycle {
			t.Fatalf("nextWakeup returned %d at cycle %d (not in the future)", next, s.cycle)
		}
		s.advanceTo(next)
	}
}

// TestCtxSwitchZeroDuration exercises the genuine past-wakeup shape the
// ctx machinery documents: Duration 0 makes resumeAt equal the
// switch-out cycle, so the switch-in wakeup is already in the past when
// the scheduler sees it. Both engines must agree bit-for-bit.
func TestCtxSwitchZeroDuration(t *testing.T) {
	fixedExportClock(t, time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC))
	app := testApp(t)
	cfg := testConfig().WithPrefetcher(PFRnR)
	cfg.CtxSwitch = CtxSwitchConfig{Period: 5_000, Duration: 0}
	requireIdentical(t, cfg, app)
}

// TestCtxSwitchStormDegeneratesGracefully forces switch flips every few
// dozen cycles: the event engine degenerates to dense per-cycle stepping
// and must stay byte-identical to the stepped engine.
func TestCtxSwitchStormDegeneratesGracefully(t *testing.T) {
	fixedExportClock(t, time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC))
	fc := audit.FuzzConfig{Seed: 3}.WithDefaults()
	app := audit.Fuzz(fc)
	cfg := fuzzMachine(fc.Cores).WithPrefetcher(PFRnR)
	cfg.Audit = nil
	// Flips every 25-50 cycles — under the memory round-trip, so the
	// machine never drains between switches. (Even faster storms, e.g.
	// period 7, livelock the modeled machine itself identically under
	// both engines: the private caches are invalidated before any fill
	// can be used.)
	cfg.CtxSwitch = CtxSwitchConfig{Period: 50, Duration: 25}
	se, _ := requireIdentical(t, cfg, app)
	// The storm leaves few skippable gaps: the event engine must have
	// degenerated to mostly per-cycle stepping (rather than wedging, or
	// worse, skipping active cycles), simulating the large majority of
	// cycles densely.
	if ticked, total := se.TickedCycles(), se.Cycle(); ticked*2 < total {
		t.Errorf("event engine ticked only %d of %d cycles in a ctx storm", ticked, total)
	}
}

// TestSimultaneousWakeupsPreserveTickOrder: with every component due on
// the same cycle — dense fuzz traffic keeps cores, caches, LLC and DRAM
// all active — architectural equality with the stepped engine proves the
// event engine dispatches same-cycle work in the fixed Tick order
// (cores → L1/L2/prefetch → LLC → DRAM); any reordering would reshuffle
// queue contents and change the hashed state.
func TestSimultaneousWakeupsPreserveTickOrder(t *testing.T) {
	fixedExportClock(t, time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC))
	for _, seed := range []int64{5, 17} {
		fc := audit.FuzzConfig{Seed: seed, Pathological: true}.WithDefaults()
		app := audit.Fuzz(fc)
		cfg := fuzzMachine(fc.Cores).WithPrefetcher(PFRnRCombined)
		cfg.Audit = nil
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			requireIdentical(t, cfg, app)
		})
	}
}
