package bench

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"rnrsim/internal/sim"
)

// resetRequested clears the requested-key log (test hook: isolates the
// keys one table assembly requests from the keys Prewarm requested).
func (s *Suite) resetRequested() {
	s.mu.Lock()
	s.requested = make(map[string]struct{})
	s.mu.Unlock()
}

// TestRunSingleflightRace hammers one key from 16 goroutines and asserts
// exactly one fresh simulation happened and every caller got the same
// memoised result. Run under -race this is the regression test for the
// check-then-act race the singleflight rewrite fixed.
func TestRunSingleflightRace(t *testing.T) {
	s := testSuite()
	var fresh atomic.Int64
	s.Progress = func(string) { fresh.Add(1) }

	const callers = 16
	results := make([]*sim.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.Run("pagerank", "urand", sim.PFNextLine, Variant{})
		}(i)
	}
	wg.Wait()

	if got := fresh.Load(); got != 1 {
		t.Fatalf("16 concurrent callers triggered %d fresh simulations, want exactly 1", got)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different *Result than caller 0: memoisation broken", i)
		}
	}
}

// TestAppSingleflightRace is the workload-construction analogue: 16
// goroutines asking for the same app share exactly one Build.
func TestAppSingleflightRace(t *testing.T) {
	s := testSuite()
	const callers = 16
	apps := make([]any, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			apps[i] = s.App("spcg", "bbmat")
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if apps[i] != apps[0] {
			t.Fatalf("caller %d got a different *App than caller 0", i)
		}
	}
}

// TestPlanCoversEveryExperiment asserts every experiment id resolves to
// a runner, and that Plan deduplicates shared keys across experiments.
func TestPlanCoversEveryExperiment(t *testing.T) {
	s := testSuite()
	for _, id := range ExperimentIDs {
		if _, ok := s.Runner(id); !ok {
			t.Errorf("ExperimentIDs lists %q but Runner does not know it", id)
		}
	}
	plan := s.Plan(ExperimentIDs...)
	seen := make(map[string]struct{}, len(plan))
	for _, r := range plan {
		k := r.Key
		if _, dup := seen[k]; dup {
			t.Errorf("Plan emitted duplicate key %s", k)
		}
		seen[k] = struct{}{}
	}
	// The baselines feed most figures: the dedup must make the combined
	// plan strictly smaller than the sum of per-experiment plans.
	var sum int
	for _, id := range ExperimentIDs {
		sum += len(s.Plan(id))
	}
	if len(plan) >= sum {
		t.Errorf("combined plan has %d runs, per-experiment sum %d: dedup not working", len(plan), sum)
	}
}

// TestPlanSimulatesNothing pins that planning is a dry run: planning
// every experiment on a cold suite performs no fresh run, builds no app
// and calls no Progress hook, yet names the co-run and core-scaling
// runs that assembly will request.
func TestPlanSimulatesNothing(t *testing.T) {
	s := testSuite()
	var progress atomic.Int64
	s.Progress = func(string) { progress.Add(1) }
	plan := s.Plan(ExperimentIDs...)
	if len(plan) == 0 {
		t.Fatal("empty plan")
	}
	if n := s.FreshRuns(); n != 0 {
		t.Errorf("planning performed %d fresh runs", n)
	}
	if n := len(s.apps); n != 0 {
		t.Errorf("planning built %d apps", n)
	}
	if n := progress.Load(); n != 0 {
		t.Errorf("planning called Progress %d times", n)
	}
	for id, want := range map[string]int{"corun": 12, "core-scaling": 8, "tableIII": 0} {
		if got := len(s.Plan(id)); got != want {
			t.Errorf("%s planned %d runs, want %d", id, got, want)
		}
	}
}

// TestPlannerCompleteness verifies, for every experiment, the planner's
// contract: after Prewarm(Plan(id)) the table assembly (a) performs zero
// fresh simulations and (b) requests exactly the planned key set —
// neither a cold miss nor an over-planned run the table never uses. It
// also holds each rendered table to its registry id and title.
func TestPlannerCompleteness(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the full suite")
	}
	s := testSuite()
	s.Parallelism = 4
	var fresh atomic.Int64
	s.Progress = func(string) { fresh.Add(1) }

	for _, e := range registry {
		plan := s.Plan(e.id)
		s.Prewarm(plan)

		before := fresh.Load()
		s.resetRequested()
		run, ok := s.Runner(e.id)
		if !ok {
			t.Fatalf("no runner for %q", e.id)
		}
		tb := run()

		if tb.ID != e.id || tb.Title != e.title {
			t.Errorf("%s: table renders as %q %q, registry says %q %q", e.id, tb.ID, tb.Title, e.id, e.title)
		}
		if d := fresh.Load() - before; d != 0 {
			t.Errorf("%s: assembly performed %d fresh simulations after Prewarm; want 0", e.id, d)
		}
		requested := s.RequestedKeys()
		planned := make(map[string]struct{}, len(plan))
		for _, k := range PlanKeys(plan) {
			planned[k] = struct{}{}
		}
		for k := range requested {
			if _, ok := planned[k]; !ok {
				t.Errorf("%s: assembly requested unplanned key %s", e.id, k)
			}
		}
		for k := range planned {
			if _, ok := requested[k]; !ok {
				t.Errorf("%s: planned key %s never requested by assembly", e.id, k)
			}
		}
	}
}

// TestPrewarmDeterminism asserts the parallel engine's headline
// guarantee: tables assembled after an 8-wide Prewarm are byte-identical
// to a fully serial run on a fresh suite.
func TestPrewarmDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates fig1 and fig7 twice")
	}
	ids := []string{"fig1", "fig7"}

	render := func(s *Suite) []byte {
		var buf bytes.Buffer
		for _, id := range ids {
			run, _ := s.Runner(id)
			buf.WriteString(run().Format())
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}

	serial := testSuite()
	serial.Parallelism = 1
	want := render(serial)

	par := testSuite()
	par.Parallelism = 8
	var fresh atomic.Int64
	par.Progress = func(string) { fresh.Add(1) }
	plan := par.Plan(ids...)
	par.Prewarm(plan)
	warm := fresh.Load()
	got := render(par)

	if !bytes.Equal(want, got) {
		t.Fatalf("parallel assembly diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if int(warm) != len(plan) {
		t.Errorf("Prewarm performed %d fresh runs for a %d-run plan", warm, len(plan))
	}
	if d := fresh.Load() - warm; d != 0 {
		t.Errorf("assembly after Prewarm performed %d fresh runs; want 0", d)
	}
}

// TestRunPoolPanicPropagates asserts worker panics surface on the
// caller's goroutine after the pool drains, matching serial semantics.
func TestRunPoolPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("runPool swallowed the worker panic")
		}
	}()
	runPool(4, 8, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
}

// TestRunPoolCoverage asserts every index runs exactly once at every
// pool width, including the serial and over-provisioned cases.
func TestRunPoolCoverage(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 23
		var counts [n]atomic.Int64
		runPool(workers, n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}
