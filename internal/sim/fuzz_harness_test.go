package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"rnrsim/internal/audit"
	"rnrsim/internal/obs"
	"rnrsim/internal/trace"
)

// fuzzMachine is the miniature machine the fuzz harness drives: the
// test machine resized to the fuzzer's core count, with the auditor
// sweeping at a tight cadence and a hard cycle ceiling so a wedged
// interleaving fails fast instead of hanging the suite.
func fuzzMachine(cores int) Config {
	cfg := Test()
	cfg.Cores = cores
	cfg.Audit = &audit.Config{Interval: 64}
	cfg.MaxCycles = 5_000_000
	return cfg
}

// Bits of FuzzSimulate's shape byte, each switching one machine
// feature on.
const (
	shapeCoherence = 1 << iota
	shapeBanked
	shapeCrossCore
	shapeObs
	shapeCtxSwitch

	// shapeCoherent is the co-run machine: coherence directory, a
	// 2-bank LLC and the cross-core prefetcher filling it.
	shapeCoherent = shapeCoherence | shapeBanked | shapeCrossCore
)

// fuzzSeqCaps are the sequence-table capacities the seqCap byte picks
// from; the small ones overflow mid-window.
var fuzzSeqCaps = [4]uint64{8, 16, 64, 256}

// fuzzInput decodes FuzzSimulate's raw inputs into the fuzzed workload
// and the machine it runs on.
func fuzzInput(seed int64, pathological bool, pf, shape, cores, seqCap uint8) (fuzzConfig, Config) {
	fc := fuzzConfig{
		Seed:         seed,
		Pathological: pathological,
		Cores:        1 + int(cores%4),
		SeqCap:       fuzzSeqCaps[seqCap%4],
	}.withDefaults()
	cfg := fuzzMachine(fc.Cores).WithPrefetcher(AllPrefetchers[int(pf)%len(AllPrefetchers)])
	cfg.Coherence = shape&shapeCoherence != 0
	if shape&shapeBanked != 0 {
		cfg.LLCBanks = 2
	}
	cfg.CrossCore = shape&shapeCrossCore != 0
	if shape&shapeObs != 0 {
		cfg.Obs = &obs.Config{}
	}
	if shape&shapeCtxSwitch != 0 {
		cfg.CtxSwitch = CtxSwitchConfig{Period: 3000, Duration: 500}
	}
	return fc, cfg
}

// fuzzKinds are the prefetchers TestFuzzedTracesAuditClean sweeps over
// every corpus seed; the rest of AllPrefetchers get seeds 1-8.
var fuzzKinds = []PrefetcherKind{PFNone, PFNextLine, PFStream, PFRnR, PFRnRCombined}

// fuzzEntry is one seed-corpus input, on 2 cores with a 64-entry
// sequence table (the fuzzer's defaults), filed under the test and
// subtest that replay it.
type fuzzEntry struct {
	test, sub string
	seed      int64
	patho     bool
	pf        PrefetcherKind
	shape     uint8
}

// fuzzCorpus is FuzzSimulate's seed corpus. Each entry belongs to
// exactly one replaying test, so the three tests together replay it
// once.
var fuzzCorpus = func() []fuzzEntry {
	var c []fuzzEntry
	add := func(test, sub string, seed int64, patho bool, pf PrefetcherKind, shape uint8) {
		c = append(c, fuzzEntry{test, sub, seed, patho, pf, shape})
	}
	var seeds []int64
	for s := int64(1); s <= 32; s++ {
		seeds = append(seeds, s)
	}
	seeds = append(seeds, 42, 1337, 99991, 2026)
	for _, patho := range []bool{false, true} {
		for _, pf := range fuzzKinds {
			sub := fmt.Sprintf("%s/patho=%v", pf, patho)
			for _, seed := range seeds {
				add("TestFuzzedTracesAuditClean", sub, seed, patho, pf, 0)
			}
			if patho {
				add("TestFuzzedTracesAuditClean", sub, 7, true, pf, shapeObs)
			}
		}
		for _, pf := range AllPrefetchers {
			if slices.Contains(fuzzKinds, pf) {
				continue
			}
			for seed := int64(1); seed <= 8; seed++ {
				add("TestFuzzedTracesEngineDifferential", fmt.Sprintf("patho=%v", patho), seed, patho, pf, 0)
			}
		}
	}
	for seed := int64(1); seed <= 16; seed++ {
		add("TestFuzzedCoherenceAuditClean", "", seed, true, PFRnR, shapeCoherent)
		add("TestFuzzedCoherenceAuditClean", "", seed, true, PFNextLine, shapeCoherent)
	}
	for _, seed := range []int64{1, 2, 3, 5, 8, 42} {
		add("TestFuzzedCoherenceAuditClean", "", seed, false, PFRnR, shapeCoherent)
	}
	return c
}()

// check runs the entry through fuzzCheck, unless short mode skips it.
func (e fuzzEntry) check(t *testing.T) *Result {
	if testing.Short() && e.seed > 8 {
		return nil
	}
	return fuzzCheck(t, e.seed, e.patho, uint8(slices.Index(AllPrefetchers, e.pf)), e.shape, 1, 2)
}

// fuzzCheck is the fuzz body: the decoded input runs on the
// event-driven and the cycle-stepped engine under the invariant
// checker. Both runs must finish audit-clean, and their Results must
// be DeepEqual: a divergence is a wakeup bug (a component reported a
// wakeup later than its next state change, and the scheduler skipped a
// cycle that mattered). It returns the event engine's Result.
func fuzzCheck(t *testing.T, seed int64, pathological bool, pf, shape, cores, seqCap uint8) *Result {
	t.Helper()
	fc, cfg := fuzzInput(seed, pathological, pf, shape, cores, seqCap)
	input := fmt.Sprintf("seed %d pathological=%v %s cores=%d seqcap=%d shape=%#x",
		seed, pathological, cfg.Prefetcher, fc.Cores, fc.SeqCap, shape)
	app := fuzzApp(fc)
	run := func(stepped bool) *Result {
		cfg := cfg
		cfg.ForceCycleStepped = stepped
		s, err := New(cfg, app)
		if err != nil {
			t.Fatalf("%s: %v", input, err)
		}
		r, err := runAll(s)
		if err != nil {
			for _, v := range s.aud.Violations() {
				t.Logf("%s: %s", input, v)
			}
			t.Fatalf("%s (stepped=%v): %v", input, stepped, err)
		}
		return r
	}
	ev, st := run(false), run(true)
	if !reflect.DeepEqual(ev, st) {
		t.Fatalf("%s: Result diverged between engines: event %d cycles hash %016x, stepped %d cycles hash %016x",
			input, ev.Cycles, ev.StateHash, st.Cycles, st.StateHash)
	}
	return ev
}

// FuzzSimulate is the simulator's fuzz target: randomized marker/load
// interleavings from fuzzApp — including the pathological shapes
// real workloads never emit — on random machine shapes, each checked
// by fuzzCheck. Short mode skips inputs with seed > 8.
//
// `go test ./internal/sim -run FuzzSimulate` replays the seed corpus
// (fuzzCorpus); one entry replays with -run 'FuzzSimulate/seed#N'.
// Fuzzing proper is `go test ./internal/sim -run '^$' -fuzz '^FuzzSimulate$'`.
func FuzzSimulate(f *testing.F) {
	for _, e := range fuzzCorpus {
		f.Add(e.seed, e.patho, uint8(slices.Index(AllPrefetchers, e.pf)), e.shape, uint8(1), uint8(2))
	}
	f.Fuzz(func(t *testing.T, seed int64, pathological bool, pf, shape, cores, seqCap uint8) {
		if testing.Short() && seed > 8 {
			t.Skip("short mode replays seeds 1-8")
		}
		fuzzCheck(t, seed, pathological, pf, shape, cores, seqCap)
	})
}

// replayCorpus replays the corpus entries filed under t's test, one
// parallel subtest per sub name.
func replayCorpus(t *testing.T) {
	var subs []string
	for _, e := range fuzzCorpus {
		if e.test == t.Name() && !slices.Contains(subs, e.sub) {
			subs = append(subs, e.sub)
		}
	}
	for _, sub := range subs {
		t.Run(sub, func(st *testing.T) {
			st.Parallel()
			for _, e := range fuzzCorpus {
				if e.test == t.Name() && e.sub == sub {
					e.check(st)
				}
			}
		})
	}
}

// TestFuzzedTracesAuditClean replays the corpus's plain-machine
// entries for the five fuzzKinds: seeds 1-32, 42, 1337, 99991 and 2026
// with pathological shapes off and on, plus seed 7 with the flight
// recorder on.
func TestFuzzedTracesAuditClean(t *testing.T) { replayCorpus(t) }

// TestFuzzedTracesEngineDifferential replays the corpus's entries for
// the prefetchers outside fuzzKinds: seeds 1-8, pathological shapes
// off and on.
func TestFuzzedTracesEngineDifferential(t *testing.T) { replayCorpus(t) }

// TestFuzzedCoherenceAuditClean replays the corpus's coherent entries
// (coherence directory, 2-bank LLC, cross-core prefetcher). The
// fuzzer's cores all store into one shared target region, the sharing
// pattern the composed co-runs (disjoint address slices) never
// produce, and at least one entry must actually invalidate, otherwise
// these entries are vacuous.
func TestFuzzedCoherenceAuditClean(t *testing.T) {
	var invalidations uint64
	for _, e := range fuzzCorpus {
		if e.test != t.Name() {
			continue
		}
		if r := e.check(t); r != nil && r.Coherence != nil {
			invalidations += r.Coherence.Invalidations
		}
	}
	if invalidations == 0 {
		t.Error("no coherent fuzz entry recorded an invalidation; the entries are vacuous")
	}
}

// TestFuzzedTracesDeterministic pins the fuzzer's reproducibility end
// to end: same seed, same app, same machine, same state hash. This is
// what makes a fuzz failure reportable as a seed.
func TestFuzzedTracesDeterministic(t *testing.T) {
	fc := fuzzConfig{Seed: 7, Pathological: true}.withDefaults()
	run := func() uint64 {
		s, err := New(fuzzMachine(fc.Cores).WithPrefetcher(PFRnR), fuzzApp(fc))
		if err != nil {
			t.Fatal(err)
		}
		r, err := runAll(s)
		if err != nil {
			t.Fatal(err)
		}
		return r.StateHash
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed hashed %016x then %016x", a, b)
	}
}

// TestFuzzedHugeIterAuxBounded is the Bug H harness-level regression: a
// pathological trace marks iteration indices around 2^20, far past
// maxTrackedIterations. The run must complete without ballooning the
// per-iteration bookkeeping (the slices stay far below the cap, since
// the huge index is dropped rather than allocated) and without wedging
// the barrier.
func TestFuzzedHugeIterAuxBounded(t *testing.T) {
	// Sweep seeds until one actually emits the huge-Aux marker
	// (probability a few percent per iteration per core).
	hit := false
	for seed := int64(1); seed <= 40 && !hit; seed++ {
		fc := fuzzConfig{Seed: seed, Pathological: true, Iterations: 6}.withDefaults()
		app := fuzzApp(fc)
		huge := false
		for _, tr := range app.Traces {
			for _, rec := range tr.Records() {
				if rec.Marker == trace.MarkIterEnd && int(rec.Aux) >= maxTrackedIterations {
					huge = true
				}
			}
		}
		if !huge {
			continue
		}
		hit = true
		s, err := New(fuzzMachine(fc.Cores), app)
		if err != nil {
			t.Fatal(err)
		}
		r, err := runAll(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The huge index must have been dropped, not allocated: the
		// tables stay sized by the real iteration count, not the Aux.
		if len(r.IterEnd) > 4*fc.Iterations {
			t.Fatalf("seed %d: IterEnd grew to %d entries for a %d-iteration trace",
				seed, len(r.IterEnd), fc.Iterations)
		}
	}
	if !hit {
		t.Fatal("no seed in the sweep emitted a huge IterEnd Aux; fuzzer changed?")
	}
}
