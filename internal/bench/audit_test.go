package bench

import (
	"testing"

	"rnrsim/internal/audit"
	"rnrsim/internal/sim"
)

// differentialKeys is the run matrix the serial-vs-parallel hash test
// covers: a baseline and an RnR run for two workloads, enough to involve
// every component (cores, caches, DRAM, engines) without making the
// test slow.
var differentialKeys = []struct {
	workload, input string
	pf              sim.PrefetcherKind
}{
	{"pagerank", "urand", sim.PFNone},
	{"pagerank", "urand", sim.PFRnR},
	{"hyperanf", "urand", sim.PFNone},
	{"hyperanf", "urand", sim.PFRnR},
}

// hashesOf runs every differential key through the suite and collects
// the run key -> StateHash map.
func hashesOf(t *testing.T, s *Suite) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64, len(differentialKeys))
	for _, k := range differentialKeys {
		r := s.Run(k.workload, k.input, k.pf, Variant{})
		if r == nil {
			t.Fatalf("run %s/%s/%s failed", k.workload, k.input, k.pf)
		}
		if r.StateHash == 0 {
			t.Fatalf("run %s/%s/%s has zero StateHash", k.workload, k.input, k.pf)
		}
		out[RunKey(k.workload, k.input, k.pf, "")] = r.StateHash
	}
	return out
}

// TestStateHashSerialVsParallel is the differential acceptance check:
// a fully serial suite and a Parallelism-8 suite driven through Prewarm
// must produce identical architectural state hashes for every run, not
// just identical table bytes. Singleflight memoisation means the two
// suites must be distinct instances for the comparison to be real.
func TestStateHashSerialVsParallel(t *testing.T) {
	serial := testSuite()
	serial.Parallelism = 1
	serialHashes := hashesOf(t, serial)

	parallel := testSuite()
	parallel.Parallelism = 8
	plan := parallel.dryRun(func(dry *Suite) {
		for _, k := range differentialKeys {
			dry.Run(k.workload, k.input, k.pf, Variant{})
		}
	})
	if n := parallel.Prewarm(plan); n != len(plan) {
		t.Fatalf("prewarm completed %d of %d runs", n, len(plan))
	}
	parallelHashes := hashesOf(t, parallel) // all cache hits now

	for key, want := range serialHashes {
		if got := parallelHashes[key]; got != want {
			t.Errorf("%s: serial hash %016x != parallel hash %016x", key, want, got)
		}
	}
}

// TestSuiteAuditPropagates pins that setting Suite.Config.Audit turns
// the auditor on for every run the suite simulates, and that an audited
// suite still produces the same results (and hashes) as an unaudited
// one.
func TestSuiteAuditPropagates(t *testing.T) {
	plain := testSuite()
	want := plain.Run("pagerank", "urand", sim.PFRnR, Variant{})

	audited := testSuite()
	audited.Config.Audit = &audit.Config{Interval: 512}
	got := audited.Run("pagerank", "urand", sim.PFRnR, Variant{})
	if got == nil {
		t.Fatal("audited suite run failed")
	}
	if got.StateHash != want.StateHash {
		t.Errorf("audited suite hash %016x != plain %016x", got.StateHash, want.StateHash)
	}
	if got.Cycles != want.Cycles || got.Instructions != want.Instructions {
		t.Errorf("audited suite result diverged: %d/%d cycles, %d/%d instructions",
			got.Cycles, want.Cycles, got.Instructions, want.Instructions)
	}
}
