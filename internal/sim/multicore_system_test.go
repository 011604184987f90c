package sim

import (
	"reflect"
	"testing"

	"rnrsim/internal/apps"
	"rnrsim/internal/multicore"
	"rnrsim/internal/trace"
)

// oneCoreConfig is the miniature machine resized to one core.
func oneCoreConfig() Config {
	cfg := Test()
	cfg.Cores = 1
	return cfg
}

// normalizeMulticore strips the fields the multicore subsystem adds
// (workload naming from composition, the optional stats sections) so a
// composed 1-job run can be compared field-for-field against the legacy
// single-program run it must be equivalent to.
func normalizeMulticore(r *Result) *Result {
	c := *r
	c.App, c.Input, c.ConfigName = "", "", ""
	c.Coherence = nil
	c.CrossCore = nil
	return &c
}

// TestMulticoreOneCoreIdentity is the tentpole's anchoring differential:
// a 1-core machine with the multicore features switched on (coherence
// directory attached, app built through multicore.Compose) produces a
// byte-identical result — state hash, per-core sub-hash, every counter —
// to today's single-core system running the plain single-program build.
// With one core the directory can never invalidate anything and a
// 1-bank LLC is the monolithic LLC, so any divergence is a wiring bug.
func TestMulticoreOneCoreIdentity(t *testing.T) {
	for _, pf := range []PrefetcherKind{PFNone, PFNextLine, PFRnR} {
		pf := pf
		t.Run(string(pf), func(t *testing.T) {
			solo := apps.DefaultConfig()
			solo.Cores = 1
			legacyApp, err := apps.BuildConfig("pagerank", "urand", apps.ScaleTest, solo)
			if err != nil {
				t.Fatal(err)
			}
			composed, err := multicore.Compose(apps.ScaleTest,
				[]multicore.JobSpec{{Workload: "pagerank", Input: "urand"}})
			if err != nil {
				t.Fatal(err)
			}

			legacy := runOne(t, oneCoreConfig().WithPrefetcher(pf), legacyApp)

			cfg := oneCoreConfig().WithPrefetcher(pf)
			cfg.Coherence = true
			cfg.LLCBanks = 1
			multi := runOne(t, cfg, composed)

			if multi.Coherence == nil {
				t.Fatal("coherent run exported no coherence section")
			}
			if n := multi.Coherence.Invalidations; n != 0 {
				t.Errorf("1-core directory invalidated %d lines", n)
			}
			if legacy.StateHash != multi.StateHash {
				t.Errorf("state hash: legacy %016x != multicore %016x", legacy.StateHash, multi.StateHash)
			}
			if len(legacy.CoreHashes) != 1 || len(multi.CoreHashes) != 1 ||
				legacy.CoreHashes[0] != multi.CoreHashes[0] {
				t.Errorf("core-0 sub-hash: legacy %v != multicore %v", legacy.CoreHashes, multi.CoreHashes)
			}
			if !reflect.DeepEqual(normalizeMulticore(legacy), normalizeMulticore(multi)) {
				t.Errorf("results differ beyond the multicore fields:\n legacy %+v\n multi  %+v",
					normalizeMulticore(legacy), normalizeMulticore(multi))
			}
		})
	}
}

// TestMulticoreIdleCoreSubHash pins the per-core sub-hash contract: a
// 2-core coherent machine whose second core has an empty trace finishes
// with the same core-0 sub-hash (and the same cycle count) as the solo
// 1-core run. The combined hash legitimately differs — it folds the idle
// core's empty caches — which is exactly what the sub-hashes see through.
func TestMulticoreIdleCoreSubHash(t *testing.T) {
	composed, err := multicore.Compose(apps.ScaleTest,
		[]multicore.JobSpec{{Workload: "pagerank", Input: "urand"}})
	if err != nil {
		t.Fatal(err)
	}

	solo := runOne(t, oneCoreConfig().WithPrefetcher(PFRnR), composed)

	padded := *composed
	padded.Cores = 2
	padded.Traces = []trace.Trace{composed.Traces[0], nil}
	padded.Groups = nil // one SPMD group; the drained core counts as arrived
	cfg := Test().WithPrefetcher(PFRnR)
	cfg.Cores = 2
	cfg.Coherence = true
	duo := runOne(t, cfg, &padded)

	if solo.Cycles != duo.Cycles {
		t.Errorf("idle second core changed the cycle count: solo %d, duo %d", solo.Cycles, duo.Cycles)
	}
	if len(duo.CoreHashes) != 2 {
		t.Fatalf("2-core run exported %d core hashes", len(duo.CoreHashes))
	}
	if solo.CoreHashes[0] != duo.CoreHashes[0] {
		t.Errorf("core-0 sub-hash: solo %016x != duo %016x", solo.CoreHashes[0], duo.CoreHashes[0])
	}
	if solo.StateHash == duo.StateHash {
		t.Error("combined hash ignored the extra core's state")
	}
}

// coRunApp composes the canonical 2-core multi-programmed workload:
// PageRank on core 0, spCG on core 1, disjoint address slices, one
// barrier group per job.
func coRunApp(t *testing.T) *apps.App {
	t.Helper()
	app, err := multicore.Compose(apps.ScaleTest, []multicore.JobSpec{
		{Workload: "pagerank", Input: "urand"},
		{Workload: "spcg", Input: "bbmat"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// coRunConfig is the full multicore machine for the composed workload:
// RnR on both private L2s, coherence, a 2-bank LLC and the cooperative
// cross-core prefetcher.
func coRunConfig() Config {
	cfg := Test()
	cfg.Cores = 2
	cfg.Prefetcher = PFRnR
	cfg.Coherence = true
	cfg.LLCBanks = 2
	cfg.CrossCore = true
	return cfg
}

// TestCoRunAuditClean runs the composed 2-core workload on the full
// multicore machine under the invariant checker: coherence laws, banked
// LLC conservation and the per-core RnR laws all sweep clean, and the
// per-group iteration bookkeeping reaches the result.
func TestCoRunAuditClean(t *testing.T) {
	cfg := coRunConfig()
	cfg.Audit = auditCfg()
	s, err := New(cfg, coRunApp(t))
	if err != nil {
		t.Fatal(err)
	}
	r, err := runAll(s)
	if err != nil {
		t.Fatalf("audited co-run failed: %v", err)
	}
	if s.aud.Checks() == 0 {
		t.Fatal("auditor attached but never swept")
	}
	if len(r.GroupIterEnd) != 2 {
		t.Fatalf("co-run exported %d iteration groups, want 2", len(r.GroupIterEnd))
	}
	for g, ends := range r.GroupIterEnd {
		if len(ends) == 0 {
			t.Errorf("group %d recorded no iteration ends", g)
		}
	}
	if len(r.CoreL2) != 2 {
		t.Fatalf("co-run exported %d per-core L2 sections, want 2", len(r.CoreL2))
	}
	for c, l2 := range r.CoreL2 {
		if l2.DemandAccesses == 0 {
			t.Errorf("core %d's private L2 saw no demand traffic", c)
		}
	}
	if r.CrossCore == nil || r.CrossCore.Trained == 0 {
		t.Error("cross-core prefetcher never trained on the LLC miss streams")
	}
}

// TestCoRunEngineDifferential extends the event-vs-stepped safety net to
// the full multicore machine: banked LLC wakeups, barrier groups and the
// cross-core prefetcher must not open a gap between the two engines.
func TestCoRunEngineDifferential(t *testing.T) {
	app := coRunApp(t)
	run := func(stepped bool) *Result {
		cfg := coRunConfig()
		cfg.ForceCycleStepped = stepped
		s, err := New(cfg, app)
		if err != nil {
			t.Fatal(err)
		}
		r, err := runAll(s)
		if err != nil {
			t.Fatalf("stepped=%v: %v", stepped, err)
		}
		return r
	}
	ev, st := run(false), run(true)
	if ev.StateHash != st.StateHash {
		t.Errorf("state hash: event %016x != stepped %016x", ev.StateHash, st.StateHash)
	}
	if !reflect.DeepEqual(ev.CoreHashes, st.CoreHashes) {
		t.Errorf("core sub-hashes diverged: event %v, stepped %v", ev.CoreHashes, st.CoreHashes)
	}
	if !reflect.DeepEqual(ev, st) {
		t.Error("results diverged between engines beyond the hashes")
	}
}

// TestCoRunDeterministic pins run-to-run determinism of the composed
// machine, including the per-core sub-hashes the co-run experiment
// compares against solo runs.
func TestCoRunDeterministic(t *testing.T) {
	app := coRunApp(t)
	a := runOne(t, coRunConfig(), app)
	b := runOne(t, coRunConfig(), app)
	if a.StateHash != b.StateHash || !reflect.DeepEqual(a.CoreHashes, b.CoreHashes) {
		t.Errorf("co-run not deterministic: %016x/%v vs %016x/%v",
			a.StateHash, a.CoreHashes, b.StateHash, b.CoreHashes)
	}
}

// TestMulticoreConfigValidation covers the multicore config errors
// surfaced through New rather than panics.
func TestMulticoreConfigValidation(t *testing.T) {
	app := coRunApp(t)
	bad := []func(*Config){
		func(c *Config) { c.LLCBanks = 3 },
		func(c *Config) { c.LLCBanks = 2; c.IdealLLC = true; c.CrossCore = false; c.Coherence = false },
		func(c *Config) { c.CrossCore = true; c.LLCBanks = 0; c.Coherence = false; c.IdealLLC = true },
	}
	for i, mutate := range bad {
		cfg := coRunConfig()
		mutate(&cfg)
		if _, err := New(cfg, app); err == nil {
			t.Errorf("case %d: invalid multicore config accepted", i)
		} else if !testing.Short() {
			t.Logf("case %d: %v", i, err)
		}
	}
}
