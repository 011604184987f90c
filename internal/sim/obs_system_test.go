package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rnrsim/internal/obs"
	"rnrsim/internal/telemetry"
)

func obsCfg() *obs.Config { return &obs.Config{} }

// TestObsClassificationEndToEnd runs the RnR machine with the flight
// recorder attached and checks the headline acceptance invariant: the
// sum of the outcome counters equals the prefetches issued, and every
// histogram saw the samples its outcomes imply.
func TestObsClassificationEndToEnd(t *testing.T) {
	app := testApp(t)
	cfg := testConfig().WithPrefetcher(PFRnR)
	cfg.Obs = obsCfg()
	r := runOne(t, cfg, app)

	if r.Obs == nil {
		t.Fatal("Config.Obs attached but Result.Obs is nil")
	}
	lc := r.Obs.Lifecycle
	if lc.Issued == 0 {
		t.Fatal("RnR run issued no observed prefetches")
	}
	closed := lc.Timely + lc.Late + lc.UnusedEvicted + lc.UnusedAtEnd + lc.Redundant
	if lc.Issued != closed {
		t.Fatalf("issued %d != sum of outcomes %d (%+v)", lc.Issued, closed, lc)
	}
	if lc.OpenAtEnd != 0 {
		t.Fatalf("%d records still open after a drained run", lc.OpenAtEnd)
	}
	if lc.Timely == 0 {
		t.Error("an accurate RnR replay produced no timely prefetches")
	}
	// Every issue feeds the MSHR histogram; non-redundant ones are the
	// only records that can fill. Redundant events never allocate, so
	// fills are bounded by issued - redundant.
	h := r.Obs.Histograms["mshr_at_issue"]
	if lc.Issued < h.Count || h.Count == 0 {
		t.Errorf("mshr_at_issue count %d vs issued %d", h.Count, lc.Issued)
	}
	fills := r.Obs.Histograms["fill_latency_cycles"].Count
	if fills == 0 || fills > lc.Issued-lc.Redundant {
		t.Errorf("fill count %d vs issued %d redundant %d", fills, lc.Issued, lc.Redundant)
	}
	if use := r.Obs.Histograms["prefetch_to_use_cycles"].Count; use != lc.Timely {
		t.Errorf("prefetch_to_use count %d != timely %d", use, lc.Timely)
	}
	// Iteration deltas must reconcile with the totals they partition.
	if len(lc.Iterations) == 0 {
		t.Fatal("no per-iteration outcome rows")
	}
	var iterIssued uint64
	for _, it := range lc.Iterations {
		iterIssued += it.Issued
	}
	if iterIssued > lc.Issued {
		t.Errorf("iteration deltas sum to %d > total issued %d", iterIssued, lc.Issued)
	}
}

// TestObsStateHashParity is the acceptance criterion that the flight
// recorder observes without perturbing: with obs on and off the run
// produces the identical result — architectural state hash included —
// for both the plain and the LLC-destination machines.
func TestObsStateHashParity(t *testing.T) {
	app := testApp(t)
	for _, llcDest := range []bool{false, true} {
		cfg := testConfig().WithPrefetcher(PFRnR)
		cfg.RnRPrefetchToLLC = llcDest
		plain := runOne(t, cfg, app)

		cfgObs := cfg
		cfgObs.Obs = obsCfg()
		observed := runOne(t, cfgObs, app)

		if observed.Obs == nil || observed.Obs.Lifecycle.Issued == 0 {
			t.Fatalf("llcDest=%v: recorder attached but saw nothing", llcDest)
		}
		if observed.StateHash != plain.StateHash {
			t.Errorf("llcDest=%v: obs perturbed the state hash: %016x vs %016x",
				llcDest, observed.StateHash, plain.StateHash)
		}
		observed.Obs = nil
		if !reflect.DeepEqual(plain, observed) {
			t.Errorf("llcDest=%v: obs changed the result beyond its own section:\n plain %+v\n obs   %+v",
				llcDest, plain, observed)
		}
	}
}

// TestObsCtxSwitchNoLeak drives the save/restore path: context-switch
// invalidations must close resident prefetched-unused records instead
// of leaking them, and the conservation law must survive the churn.
func TestObsCtxSwitchNoLeak(t *testing.T) {
	app := testApp(t)
	cfg := testConfig().WithPrefetcher(PFRnR)
	cfg.CtxSwitch = CtxSwitchConfig{Period: 20000, Duration: 5000}
	cfg.Obs = obsCfg()
	s, err := New(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.RnR.Pauses == 0 {
		t.Fatal("no context switch ever fired")
	}
	if open := s.obsRec.OpenRecords(); open != 0 {
		t.Fatalf("%d lifecycle records leaked across context switches", open)
	}
	lc := r.Obs.Lifecycle
	closed := lc.Timely + lc.Late + lc.UnusedEvicted + lc.UnusedAtEnd + lc.Redundant
	if lc.Issued != closed {
		t.Fatalf("conservation broke under context switches: issued %d != closed %d (%+v)",
			lc.Issued, closed, lc)
	}
	s.obsRec.CheckInvariants(func(msg string) { t.Errorf("invariant: %s", msg) })
}

// TestObsAuditClean runs audit and obs together: the auditor sweeps the
// recorder's conservation law and the divergence monotone watchers on
// every pass and the run must stay clean.
func TestObsAuditClean(t *testing.T) {
	app := testApp(t)
	cfg := testConfig().WithPrefetcher(PFRnR)
	cfg.Obs = obsCfg()
	cfg.Audit = auditCfg()
	s, err := New(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runAll(s)
	if err != nil {
		t.Fatalf("audited+observed run failed: %v", err)
	}
	if s.aud.Checks() == 0 {
		t.Fatal("auditor never swept")
	}
	if v := s.aud.Violations(); len(v) > 0 {
		t.Fatalf("%d violations, first: %s", len(v), v[0])
	}
	if r.Obs == nil || r.Obs.Lifecycle.Issued == 0 {
		t.Fatal("recorder empty under audit")
	}
}

// TestObsDivergenceLowOnFaithfulReplay: replaying the very trace that
// was recorded, the observed miss stream should mostly be explained by
// the recording — the divergence signal stays well below the re-record
// threshold a staleness policy would use.
func TestObsDivergenceLowOnFaithfulReplay(t *testing.T) {
	app := testApp(t)
	cfg := testConfig().WithPrefetcher(PFRnR)
	cfg.Obs = obsCfg()
	r := runOne(t, cfg, app)

	d := r.Obs.Lifecycle.Divergence
	if d == nil {
		t.Fatal("RnR run produced no divergence section")
	}
	if d.WindowsScored == 0 || len(d.Windows) == 0 {
		t.Fatalf("no windows scored: %+v", d)
	}
	// A faithful replay should score near zero: nearly every replay-time
	// miss is a line the engine prefetched from the script (covered), and
	// the few uncovered ones sit inside the window's recorded
	// neighbourhood. 0.1 leaves headroom for boundary noise while still
	// rejecting a probe that misattributes timing skew as drift.
	if d.MeanScore > 0.1 {
		t.Errorf("faithful replay diverged: mean %.3f (%+v)", d.MeanScore, d)
	}
	if d.MaxScore > 1 || d.MeanScore < 0 {
		t.Errorf("score out of range: %+v", d)
	}
	for _, w := range d.Windows {
		if w.Core < 0 || w.Core >= cfg.Cores {
			t.Errorf("window labelled with bad core: %+v", w)
		}
	}
}

// TestObsDisabledLeavesNoTrace: a nil Config.Obs must leave the result
// without lifecycle sections and the export without the new keys.
func TestObsDisabledLeavesNoTrace(t *testing.T) {
	app := testApp(t)
	r := runOne(t, testConfig().WithPrefetcher(PFRnR), app)
	if r.Obs != nil {
		t.Fatal("Result.Obs set without Config.Obs")
	}
	out, err := json.Marshal(r.Export())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"lifecycle"`, `"histograms"`} {
		if bytes.Contains(out, []byte(key)) {
			t.Errorf("disabled run exported %s", key)
		}
	}
}

// TestObsExportGolden locks the lifecycle/histograms serialisation of a
// fixed observed Result against a golden file, envelope included.
func TestObsExportGolden(t *testing.T) {
	fixedExportClock(t, time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
	hist := &telemetry.Histogram{}
	hist.Observe(3)
	hist.Observe(100)
	r := &Result{
		ConfigName:   "pagerank/urand/rnr/",
		Prefetcher:   PFRnR,
		App:          "pagerank",
		Input:        "urand",
		Cycles:       1000,
		Instructions: 1700,
		Iterations:   2,
		InputBytes:   4096,
		Obs: &obs.Summary{
			Lifecycle: obs.LifecycleJSON{
				Issued: 10, Timely: 6, Late: 2, UnusedEvicted: 1,
				Redundant: 1, LateStallShaved: 40,
				Iterations: []obs.IterOutcomesJSON{
					{Iter: 0, EndCycle: 400, Issued: 4, Timely: 2, Late: 2},
					{Iter: 1, EndCycle: 1000, Issued: 6, Timely: 4, UnusedEvicted: 1, Redundant: 1},
				},
				Divergence: &obs.DivergenceJSON{
					WindowsScored: 2, MeanScore: 0.125, MaxScore: 0.25,
					Windows: []obs.WindowScoreJSON{
						{Core: 0, Window: 0, Predicted: 4, Observed: 4, EditDistance: 1, Score: 0.25},
						{Core: 0, Window: 1, Predicted: 4, Observed: 2},
					},
				},
			},
			Histograms: map[string]telemetry.HistogramJSON{
				"fill_latency_cycles": hist.JSON(),
			},
		},
	}
	got, err := json.MarshalIndent(r.Export(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "export_obs.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("obs export drifted from golden (regenerate with -update and bump ExportSchemaVersion if intentional)\n got: %s\nwant: %s", got, want)
	}
}
