package sim

import (
	"reflect"
	"strings"
	"testing"

	"rnrsim/internal/apps"
	"rnrsim/internal/audit"
	"rnrsim/internal/mem"
	"rnrsim/internal/trace"
)

func auditCfg() *audit.Config { return &audit.Config{Interval: 256} }

// TestAuditCleanAcrossPrefetchers is the headline acceptance check: the
// test-scale workload runs clean under the auditor for every major
// prefetcher configuration, and the audited result is byte-identical to
// the unaudited one (the auditor observes, never perturbs).
func TestAuditCleanAcrossPrefetchers(t *testing.T) {
	app := testApp(t)
	kinds := []PrefetcherKind{
		PFNone, PFNextLine, PFStream, PFGHB, PFBingo, PFRnR, PFRnRCombined,
	}
	for _, pf := range kinds {
		pf := pf
		t.Run(string(pf), func(t *testing.T) {
			plain := runOne(t, testConfig().WithPrefetcher(pf), app)

			cfg := testConfig().WithPrefetcher(pf)
			cfg.Audit = auditCfg()
			s, err := New(cfg, app)
			if err != nil {
				t.Fatal(err)
			}
			audited, err := s.RunAll()
			if err != nil {
				t.Fatalf("audited run failed: %v", err)
			}
			if s.Audit() == nil || s.Audit().Checks() == 0 {
				t.Fatal("auditor attached but never swept")
			}
			if v := s.Audit().Violations(); len(v) > 0 {
				t.Fatalf("%d violations, first: %s", len(v), v[0])
			}
			if !reflect.DeepEqual(plain, audited) {
				t.Errorf("audited result differs from unaudited result:\n plain   %+v\n audited %+v", plain, audited)
			}
		})
	}
}

// TestStateHashDeterministic pins the digest's two core properties:
// identical runs hash identically, and a change to the machine (a
// different prefetcher over the same trace) changes the hash.
func TestStateHashDeterministic(t *testing.T) {
	app := testApp(t)
	a := runOne(t, testConfig(), app)
	b := runOne(t, testConfig(), app)
	if a.StateHash == 0 {
		t.Fatal("StateHash is zero; collect never hashed the machine")
	}
	if a.StateHash != b.StateHash {
		t.Errorf("identical runs hash differently: %016x vs %016x", a.StateHash, b.StateHash)
	}
	c := runOne(t, testConfig().WithPrefetcher(PFRnR), app)
	if c.StateHash == a.StateHash {
		t.Errorf("RnR run hashes identically to baseline: %016x", c.StateHash)
	}
	// Auditing must not perturb the digest.
	cfg := testConfig()
	cfg.Audit = auditCfg()
	s, err := New(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if d.StateHash != a.StateHash {
		t.Errorf("audited hash %016x != unaudited %016x", d.StateHash, a.StateHash)
	}
}

// TestStateHashIdealLLC covers the map-backed ideal LLC's sorted hash.
func TestStateHashIdealLLC(t *testing.T) {
	app := testApp(t)
	cfg := testConfig()
	cfg.IdealLLC = true
	a := runOne(t, cfg, app)
	b := runOne(t, cfg, app)
	if a.StateHash != b.StateHash {
		t.Errorf("ideal-LLC runs hash differently: %016x vs %016x", a.StateHash, b.StateHash)
	}
}

// corruptL2 breaks the demand-accounting conservation law
// (hits + misses + merges == accesses) on core 0's private L2.
func corruptL2(s *System) { s.l2s[0].Stats.DemandAccesses += 3 }

// TestAuditDetectsCorruption injects a counter corruption mid-run and
// asserts the final sweep fails the run with the component and law.
func TestAuditDetectsCorruption(t *testing.T) {
	app := testApp(t)
	cfg := testConfig()
	cfg.Audit = auditCfg()
	s, err := New(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 512; i++ {
		s.Tick()
	}
	corruptL2(s)
	_, err = s.RunAll()
	if err == nil {
		t.Fatal("corrupted run completed without an audit error")
	}
	if !strings.Contains(err.Error(), "audit:") {
		t.Fatalf("error is not an audit failure: %v", err)
	}
	v := s.Audit().Violations()
	if len(v) == 0 {
		t.Fatal("no violations retained")
	}
	if v[0].Component != "l2.0" {
		t.Errorf("violation blamed %q, want l2.0", v[0].Component)
	}
	if !strings.Contains(v[0].Law, "demand accounting") {
		t.Errorf("violation law %q does not name the broken invariant", v[0].Law)
	}
}

// TestAuditFailFastAborts pins that an audited run stops at the first
// tick-batch boundary after a violation instead of running to
// completion.
func TestAuditFailFastAborts(t *testing.T) {
	app := testApp(t)

	// Measure the healthy run length first.
	healthy := runOne(t, testConfig(), app)

	cfg := testConfig()
	cfg.Audit = &audit.Config{Interval: 64}
	s, err := New(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		s.Tick()
	}
	corruptL2(s)
	_, err = s.RunAll()
	if err == nil {
		t.Fatal("audited run completed despite corruption")
	}
	if !strings.Contains(err.Error(), "audit:") {
		t.Fatalf("error is not an audit failure: %v", err)
	}
	// The abort must land within one cancel batch of the corruption,
	// far before the healthy run's end.
	if s.cycle >= healthy.Cycles {
		t.Errorf("audit aborted at cycle %d, healthy run ends at %d", s.cycle, healthy.Cycles)
	}
	if s.cycle > 128+2*CancelCheckInterval {
		t.Errorf("audit aborted at cycle %d, want within two batches of the corruption at 128", s.cycle)
	}
}

// TestHugeIterationIndexBounded is the direct regression for the
// iteration-bookkeeping OOM: a trace that marks an iteration index of
// 2^28 (MarkIterEnd carries the index in Aux) must not make the
// simulator allocate 2^28 IterEnd slots and cache.Stats snapshots. The
// barrier still opens — the run drains — but the bookkeeping is capped.
func TestHugeIterationIndexBounded(t *testing.T) {
	al := mem.NewAllocator(0x1_0000)
	region := al.AllocPage("bugh.target", 4096)
	b := trace.NewBuilder(16)
	b.IterBegin(0)
	for i := 0; i < 4; i++ {
		b.Exec(2)
		b.Load(0x7000, region.Base+mem.Addr(i*64), 8, int32(region.ID))
	}
	// The hostile marker: an iteration index far past the cap.
	b.Mark(trace.MarkIterEnd, 0, 0, 1<<28)
	b.IterEnd(0)
	app := &apps.App{
		Name: "bugh", Input: "direct", Cores: 1,
		Traces:     [][]trace.Record{b.Records()},
		Iterations: 1,
		Targets:    []mem.Region{region},
		InputBytes: region.Size,
	}
	cfg := testConfig()
	cfg.Cores = 1
	cfg.Audit = auditCfg()
	cfg.MaxCycles = 1_000_000
	s, err := New(cfg, app)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.IterEnd) > 2 {
		t.Fatalf("IterEnd grew to %d entries for a 1-iteration trace", len(r.IterEnd))
	}
	if len(r.IterL2) != len(r.IterEnd) {
		t.Errorf("IterL2 has %d entries, IterEnd %d", len(r.IterL2), len(r.IterEnd))
	}
}

// TestAuditExportStateHashHex pins the JSON export shape: 16 hex digits,
// round-trippable back to the uint64.
func TestAuditExportStateHashHex(t *testing.T) {
	r := &Result{StateHash: 0x0123_4567_89ab_cdef}
	j := r.Export()
	if j.StateHash != "0123456789abcdef" {
		t.Errorf("state_hash exported as %q", j.StateHash)
	}
	r.StateHash = 0
	if j := r.Export(); j.StateHash != "0000000000000000" {
		t.Errorf("zero hash exported as %q", j.StateHash)
	}
}
