package sim

import (
	"context"
	"reflect"
	"testing"

	"rnrsim/internal/apps"
	"rnrsim/internal/graph"
	"rnrsim/internal/mem"
	"rnrsim/internal/rnr"
	"rnrsim/internal/sparse"
	"rnrsim/internal/trace"
)

// testConfig is the miniature machine paired with tiny test inputs.
func testConfig() Config { return Test() }

func testApp(t *testing.T) *apps.App {
	t.Helper()
	g := graph.Uniform(1200, 6, 99)
	return apps.PageRank(g, "urand", apps.Config{Cores: 4, Iterations: 4})
}

func runOne(t *testing.T, cfg Config, app *apps.App) *Result {
	t.Helper()
	r, err := Run(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runAll drives an assembled system to completion with no deadline.
func runAll(s *System) (*Result, error) { return s.RunAllContext(context.Background()) }

func TestBaselineRunCompletes(t *testing.T) {
	app := testApp(t)
	r := runOne(t, testConfig(), app)
	if r.Instructions != app.Instructions() {
		t.Errorf("retired %d instructions, trace has %d", r.Instructions, app.Instructions())
	}
	if r.Cycles == 0 || r.IPC() <= 0 {
		t.Errorf("cycles=%d ipc=%f", r.Cycles, r.IPC())
	}
	if r.L2.DemandMisses == 0 {
		t.Error("no L2 misses on a working set larger than the L2")
	}
	if r.DRAM.Reads == 0 {
		t.Error("no DRAM reads")
	}
	// Every iteration barrier must have opened.
	for i := 0; i < app.Iterations; i++ {
		if r.IterCycles(i) == 0 {
			t.Errorf("iteration %d has no recorded span", i)
		}
	}
}

func TestRnRBeatsBaselineOnUrand(t *testing.T) {
	app := testApp(t)
	base := runOne(t, testConfig(), app)
	rnrRes := runOne(t, testConfig().WithPrefetcher(PFRnR), app)

	if rnrRes.RnR.RecordedEntries == 0 {
		t.Fatal("RnR recorded nothing")
	}
	if rnrRes.RnR.Prefetches == 0 {
		t.Fatal("RnR issued no replay prefetches")
	}
	// Replay iterations must be faster than baseline's.
	if rnrRes.SteadyIterCycles() >= base.SteadyIterCycles() {
		t.Errorf("RnR steady iteration %.0f cycles >= baseline %.0f",
			rnrRes.SteadyIterCycles(), base.SteadyIterCycles())
	}
	if sp := rnrRes.ComposedSpeedup(base, 100); sp < 1.1 {
		t.Errorf("composed speedup %.2f, want > 1.1 on urand", sp)
	}
	// The paper's headline: accuracy and coverage both high.
	if acc := rnrRes.Accuracy(); acc < 0.8 {
		t.Errorf("RnR accuracy %.2f, want > 0.8", acc)
	}
	if cov := rnrRes.Coverage(base); cov < 0.3 {
		t.Errorf("RnR coverage %.2f, want > 0.3", cov)
	}
}

func TestRnRRecordMatchesReplayMisses(t *testing.T) {
	// The number of recorded entries should be close to the number of L2
	// misses of the target structure during the record iteration.
	app := testApp(t)
	res := runOne(t, testConfig().WithPrefetcher(PFRnR), app)
	if res.RnR.SeqOverflows != 0 {
		t.Errorf("sequence table overflowed %d times", res.RnR.SeqOverflows)
	}
	if res.RnR.RecordedWindows == 0 {
		t.Error("no division-table windows recorded")
	}
	if res.RnR.MetaWriteLines == 0 || res.RnR.MetaReadLines == 0 {
		t.Errorf("metadata traffic: %d writes, %d reads",
			res.RnR.MetaWriteLines, res.RnR.MetaReadLines)
	}
	if res.DRAM.MetaReads == 0 || res.DRAM.MetaWrites == 0 {
		t.Errorf("DRAM metadata: %d reads, %d writes", res.DRAM.MetaReads, res.DRAM.MetaWrites)
	}
}

func TestAllPrefetchersRunPageRank(t *testing.T) {
	app := testApp(t)
	base := runOne(t, testConfig(), app)
	for _, p := range AllPrefetchers {
		if p == PFNone {
			continue
		}
		res := runOne(t, testConfig().WithPrefetcher(p), app)
		if res.Instructions != base.Instructions {
			t.Errorf("%s retired %d instructions, baseline %d", p, res.Instructions, base.Instructions)
		}
		if p != PFNone && res.TotalPrefetches() == 0 && p != PFStream {
			t.Errorf("%s issued no prefetches", p)
		}
	}
}

func TestIdealLLCBoundsEveryone(t *testing.T) {
	app := testApp(t)
	base := runOne(t, testConfig(), app)
	cfgIdeal := testConfig()
	cfgIdeal.IdealLLC = true
	ideal := runOne(t, cfgIdeal, app)
	if ideal.Cycles >= base.Cycles {
		t.Errorf("ideal LLC (%d cycles) not faster than baseline (%d)", ideal.Cycles, base.Cycles)
	}
	rnrRes := runOne(t, testConfig().WithPrefetcher(PFRnR), app)
	// Ideal steady iterations should be at least as fast as RnR's.
	if ideal.SteadyIterCycles() > rnrRes.SteadyIterCycles()*1.2 {
		t.Errorf("ideal steady %.0f much slower than RnR %.0f",
			ideal.SteadyIterCycles(), rnrRes.SteadyIterCycles())
	}
}

func TestSpCGWithRnR(t *testing.T) {
	m := sparse.Stencil3D(8, 8, 8)
	app := apps.SpCG(m, "atmosmodj", apps.Config{Cores: 4, Iterations: 4})
	base := runOne(t, testConfig(), app)
	res := runOne(t, testConfig().WithPrefetcher(PFRnR), app)
	if res.RnR.RecordedEntries == 0 {
		t.Fatal("spCG recorded nothing")
	}
	if res.SteadyIterCycles() >= base.SteadyIterCycles() {
		t.Errorf("spCG RnR steady %.0f >= baseline %.0f",
			res.SteadyIterCycles(), base.SteadyIterCycles())
	}
}

func TestWindowControlAblation(t *testing.T) {
	// Window control must beat no-control on replay iterations (Fig. 10).
	app := testApp(t)
	mk := func(ctl rnr.TimingControl) *Result {
		cfg := testConfig().WithPrefetcher(PFRnR)
		cfg.RnRControl = ctl
		return runOne(t, cfg, app)
	}
	none := mk(rnr.NoControl)
	win := mk(rnr.WindowControl)
	pace := mk(rnr.WindowPaceControl)
	// The full mechanism (window+pace) must clearly beat uncontrolled
	// replay; plain window control sits in between at bench scale but is
	// noisy at this tiny test scale, so only the direction is asserted.
	if pace.SteadyIterCycles() >= none.SteadyIterCycles() {
		t.Errorf("window+pace %.0f cycles >= no control %.0f",
			pace.SteadyIterCycles(), none.SteadyIterCycles())
	}
	if win.SteadyIterCycles() > none.SteadyIterCycles()*1.15 {
		t.Errorf("window control %.0f cycles far worse than no control %.0f",
			win.SteadyIterCycles(), none.SteadyIterCycles())
	}
	if pace.Accuracy() <= none.Accuracy() {
		t.Errorf("pace accuracy %.2f <= no-control accuracy %.2f",
			pace.Accuracy(), none.Accuracy())
	}
	// No-control should show poor timeliness: most prefetches early or
	// out of window.
	tl := none.TimelinessBreakdown()
	if tl.OnTime > 0.7 {
		t.Errorf("no-control on-time fraction %.2f unexpectedly high", tl.OnTime)
	}
}

func TestResultMetricsSanity(t *testing.T) {
	app := testApp(t)
	base := runOne(t, testConfig(), app)
	res := runOne(t, testConfig().WithPrefetcher(PFNextLine), app)
	if acc := res.Accuracy(); acc < 0 || acc > 1 {
		t.Errorf("accuracy %f out of range", acc)
	}
	if cov := res.Coverage(base); cov < 0 || cov > 1 {
		t.Errorf("coverage %f out of range", cov)
	}
	tl := res.TimelinessBreakdown()
	if sum := tl.OnTime + tl.Early + tl.Late + tl.OutOfWindow; sum > 1.5 {
		t.Errorf("timeliness fractions sum to %f", sum)
	}
	if base.Coverage(nil) != 0 {
		t.Error("coverage vs nil baseline should be 0")
	}
	if s := res.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestConfigMismatchRejected(t *testing.T) {
	app := testApp(t)
	cfg := testConfig()
	cfg.Cores = 2
	if _, err := New(cfg, app); err == nil {
		t.Error("New accepted core-count mismatch")
	}
	bad := testConfig()
	bad.Prefetcher = "nope"
	if _, err := New(bad, app); err == nil {
		t.Error("New accepted unknown prefetcher")
	}
}

func TestDeterminism(t *testing.T) {
	app := testApp(t)
	a := runOne(t, testConfig().WithPrefetcher(PFRnR), app)
	b := runOne(t, testConfig().WithPrefetcher(PFRnR), app)
	if a.Cycles != b.Cycles || a.L2.DemandMisses != b.L2.DemandMisses ||
		a.RnR.Prefetches != b.RnR.Prefetches {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

// liveRegionsApp is a 1-core trace that sweeps 600 distinct 2 KB
// regions four times, three consecutive lines per visit, so far more
// than the spatial prefetchers' 256 regions are live at once and their
// bound retires a generation on nearly every trigger.
func liveRegionsApp() *apps.App {
	const regions = 600
	data := mem.NewAllocator(0x1_0000).AllocPage("regions.data", regions*2048)
	b := trace.NewBuilder(0)
	b.IterBegin(0)
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < regions; i++ {
			r := (i*7 + pass*13) % regions
			for k := 0; k < 3; k++ {
				off := (r + pass + k) % 32
				b.Exec(1)
				b.Load(0x400+uint64(r%16)*4, data.Base+mem.Addr(r*2048+off*64), 8, int32(data.ID))
			}
		}
	}
	b.IterEnd(0)
	return &apps.App{
		Name: "regions", Input: "direct", Cores: 1,
		Traces:     []trace.Trace{b.Trace()},
		Iterations: 1,
		InputBytes: data.Size,
	}
}

// TestSpatialPrefetchersReproducible runs Bingo and SteMS past their
// live-region bound twice on the event-driven engine and once stepped:
// all three Results must be DeepEqual. The generation the bound retires
// must follow from the access stream alone, never from Go's map order.
func TestSpatialPrefetchersReproducible(t *testing.T) {
	app := liveRegionsApp()
	for _, pf := range []PrefetcherKind{PFBingo, PFSteMS} {
		cfg := testConfig().WithPrefetcher(pf)
		cfg.Cores = 1
		a := runOne(t, cfg, app)
		b := runOne(t, cfg, app)
		cfg.ForceCycleStepped = true
		s := runOne(t, cfg, app)
		if a.L2.PrefetchIssued == 0 {
			t.Errorf("%s issued no prefetches: the trace does not exercise history", pf)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs differ: %d vs %d cycles, hash %016x vs %016x", pf, a.Cycles, b.Cycles, a.StateHash, b.StateHash)
		}
		if !reflect.DeepEqual(a, s) {
			t.Errorf("%s: event and stepped runs differ: %d vs %d cycles, hash %016x vs %016x", pf, a.Cycles, s.Cycles, a.StateHash, s.StateHash)
		}
	}
}
