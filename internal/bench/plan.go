// Run planning: each experiment declares, ahead of execution, the exact
// set of (workload, input, prefetcher, variant) simulations its table
// needs. Prewarm fans a plan out over a bounded worker pool (one
// goroutine per in-flight simulation, at most Suite.Parallelism); the
// singleflight memoisation in Suite.Run guarantees shared keys (the
// baselines feed most figures) are simulated exactly once. Table
// assembly afterwards is serial and entirely cache hits, so the rendered
// tables are byte-identical to a serial run — the plan only changes
// *when* runs happen, never which results feed which cells.
//
// The planner-completeness tests in plan_test.go assert, for every
// experiment id, that the planned key set equals the keys the runner
// actually requests during assembly, so the two enumerations cannot
// drift apart silently.
package bench

import (
	"context"
	"sort"
	"sync"

	"rnrsim/internal/apps"
	"rnrsim/internal/rnr"
	"rnrsim/internal/sim"
)

// PlannedRun is one simulation an experiment needs.
type PlannedRun struct {
	Workload, Input string
	PF              sim.PrefetcherKind
	Variant         Variant
}

// Key returns the memoisation key the run resolves to.
func (p PlannedRun) Key() string {
	return runKey(p.Workload, p.Input, p.PF, p.Variant.Tag)
}

// ExperimentIDs lists every experiment in presentation order (the order
// cmd/experiments emits them in).
var ExperimentIDs = []string{
	"tableII", "tableIII", "fig1", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "fig14", "tableIV",
	"record-overhead", "hw-overhead", "ctx-switch", "core-scaling",
	"design-choices", "corun",
}

// experimentTitles names each experiment for discovery listings (the
// serving layer's GET /v1/experiments) without having to run anything.
var experimentTitles = map[string]string{
	"tableII":         "Baseline configuration (paper values, scaled capacities in use)",
	"tableIII":        "Workload inputs (synthetic stand-ins, scaled)",
	"fig1":            "Prefetcher coverage and accuracy, PageRank on amazon",
	"fig6":            "Speedup over no-prefetching baseline",
	"fig7":            "L2 demand MPKI",
	"fig8":            "Prefetch coverage",
	"fig9":            "Prefetch accuracy",
	"fig10":           "Replay timing control ablation: speedup over baseline (100 iters)",
	"fig11":           "RnR prefetch timeliness (fractions of issued prefetches)",
	"fig12":           "DRAM traffic relative to baseline",
	"fig13":           "RnR metadata storage overhead (% of input size)",
	"fig14":           "Window size sweep: geomean speedup and storage overhead",
	"tableIV":         "Design comparison with the most related prefetchers",
	"record-overhead": "Record iteration overhead vs baseline iteration (%)",
	"hw-overhead":     "RnR per-core hardware budget",
	"ctx-switch":      "Context-switch resilience (PageRank/urand, periodic descheduling)",
	"core-scaling":    "Multicore scalability (PageRank/amazon)",
	"design-choices":  "§III design-choice ablation (PageRank/urand)",
	"corun":           "Co-run interference: PageRank + spCG on a 2-core coherent LLC",
}

// ExperimentTitle returns a human-readable title for an experiment id
// ("" for unknown ids).
func ExperimentTitle(id string) string { return experimentTitles[id] }

// Runner returns the table runner for an experiment id.
func (s *Suite) Runner(id string) (func() *Table, bool) {
	switch id {
	case "fig1":
		return s.Fig1, true
	case "tableII":
		return s.TableII, true
	case "tableIII":
		return s.TableIII, true
	case "fig6":
		return s.Fig6, true
	case "fig7":
		return s.Fig7, true
	case "fig8":
		return s.Fig8, true
	case "fig9":
		return s.Fig9, true
	case "fig10":
		return s.Fig10, true
	case "fig11":
		return s.Fig11, true
	case "fig12":
		return s.Fig12, true
	case "fig13":
		return s.Fig13, true
	case "fig14":
		return s.Fig14, true
	case "tableIV":
		return s.TableIV, true
	case "record-overhead":
		return s.RecordOverhead, true
	case "hw-overhead":
		return s.HardwareOverhead, true
	case "ctx-switch":
		return s.CtxSwitch, true
	case "core-scaling":
		return s.CoreScaling, true
	case "design-choices":
		return s.DesignChoices, true
	case "corun":
		return s.CoRun, true
	}
	return nil, false
}

// Plan enumerates the runs the given experiments need, deduplicated by
// key, in deterministic first-seen order. Unknown ids plan nothing
// (Runner reports them; the CLI validates before planning).
func (s *Suite) Plan(ids ...string) []PlannedRun {
	seen := make(map[string]struct{})
	var out []PlannedRun
	add := func(runs ...PlannedRun) {
		for _, r := range runs {
			k := r.Key()
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			out = append(out, r)
		}
	}
	for _, id := range ids {
		add(s.planOne(id)...)
	}
	return out
}

// eachInput invokes f over the full workload × input grid in
// presentation order.
func eachInput(f func(w, in string)) {
	for _, w := range apps.Workloads {
		for _, in := range apps.InputsFor(w) {
			f(w, in)
		}
	}
}

// planOne enumerates one experiment's runs, mirroring its runner. The
// static tables (tableII/III/IV, hw-overhead) simulate nothing.
// core-scaling builds per-core-count machines outside the memoised key
// space, and corun's co-runs are memoised under co-run keys
// (RunCoRunContext) that PlannedRun cannot name, so both plan empty and
// simulate at assembly time.
func (s *Suite) planOne(id string) []PlannedRun {
	var p []PlannedRun
	base := func(w, in string) {
		p = append(p, PlannedRun{w, in, sim.PFNone, Variant{}})
	}
	switch id {
	case "fig1":
		base("pagerank", "amazon")
		for _, pf := range fig1Prefetchers {
			p = append(p, PlannedRun{"pagerank", "amazon", pf, Variant{}})
		}
	case "fig6":
		eachInput(func(w, in string) {
			base(w, in)
			for _, pf := range comparisonSet(w) {
				p = append(p, PlannedRun{w, in, pf, Variant{}})
			}
			p = append(p, PlannedRun{w, in, sim.PFNone, IdealVariant()})
		})
	case "fig7":
		eachInput(func(w, in string) {
			base(w, in)
			p = append(p, PlannedRun{w, in, sim.PFRnR, Variant{}})
			p = append(p, PlannedRun{w, in, sim.PFRnRCombined, Variant{}})
		})
	case "fig8", "fig9", "fig12":
		eachInput(func(w, in string) {
			base(w, in)
			for _, pf := range comparisonSet(w) {
				p = append(p, PlannedRun{w, in, pf, Variant{}})
			}
		})
	case "fig10":
		eachInput(func(w, in string) {
			base(w, in)
			for _, ctl := range timingControls {
				p = append(p, PlannedRun{w, in, sim.PFRnR, ControlVariant(ctl)})
			}
		})
	case "fig11":
		eachInput(func(w, in string) {
			for _, ctl := range timingControls {
				p = append(p, PlannedRun{w, in, sim.PFRnR, ControlVariant(ctl)})
			}
		})
	case "fig13":
		eachInput(func(w, in string) {
			p = append(p, PlannedRun{w, in, sim.PFRnR, Variant{}})
		})
	case "fig14":
		for _, win := range fig14Windows {
			for _, pick := range fig14Picks {
				p = append(p, PlannedRun{pick[0], pick[1], sim.PFNone, Variant{}})
				p = append(p, PlannedRun{pick[0], pick[1], sim.PFRnR, WindowVariant(win)})
			}
		}
	case "record-overhead":
		eachInput(func(w, in string) {
			base(w, in)
			p = append(p, PlannedRun{w, in, sim.PFRnR, Variant{}})
		})
	case "ctx-switch":
		base("pagerank", "urand")
		p = append(p, PlannedRun{"pagerank", "urand", sim.PFNone, CtxSwitchVariant()})
		for _, pf := range ctxSwitchPrefetchers {
			p = append(p, PlannedRun{"pagerank", "urand", pf, Variant{}})
			p = append(p, PlannedRun{"pagerank", "urand", pf, CtxSwitchVariant()})
		}
	case "design-choices":
		base("pagerank", "urand")
		p = append(p, PlannedRun{"pagerank", "urand", sim.PFRnR, Variant{}})
		p = append(p, PlannedRun{"pagerank", "urand", sim.PFRnR, RecordAllVariant()})
		p = append(p, PlannedRun{"pagerank", "urand", sim.PFRnR, LLCDestVariant()})
	}
	return p
}

// fig1Prefetchers is the Fig. 1 line-up, shared between runner and plan.
var fig1Prefetchers = []sim.PrefetcherKind{
	sim.PFNextLine, sim.PFBingo, sim.PFMISB, sim.PFSteMS, sim.PFDroplet, sim.PFRnR,
}

// timingControls is the Fig. 10/11 control sweep, shared with the plan.
var timingControls = []rnr.TimingControl{
	rnr.NoControl, rnr.WindowControl, rnr.WindowPaceControl,
}

// Prewarm executes every planned run over a bounded worker pool
// (Suite.Parallelism wide). It first builds the distinct workloads the
// plan touches — workload construction is itself expensive at
// bench/large scale — then fans out the simulations. Returns the number
// of distinct keys prewarmed. Errors surface as panics exactly as they
// do on the serial path.
func (s *Suite) Prewarm(plan []PlannedRun) int {
	n, err := s.PrewarmContext(context.Background(), plan)
	if err != nil {
		panic(err)
	}
	return n
}

// PrewarmContext is Prewarm with cancellation: the pool stops
// dispatching new runs as soon as ctx ends or a run fails, drains its
// in-flight workers and returns the first error. Cancelled runs leave
// the memoisation cache unpoisoned (see RunContext), so a later
// Prewarm of the same plan starts the missing simulations afresh.
// Panics from experiment-definition bugs propagate exactly as they do
// on the serial path.
func (s *Suite) PrewarmContext(ctx context.Context, plan []PlannedRun) (int, error) {
	if len(plan) == 0 {
		return 0, nil
	}
	workers := s.parallelism()

	// Phase 1: distinct apps in parallel, so the run fan-out below does
	// not serialize on a thundering herd of workers all waiting for the
	// first app build.
	type wi struct{ w, in string }
	appSet := make(map[wi]struct{})
	var appsNeeded []wi
	for _, r := range plan {
		k := wi{r.Workload, r.Input}
		if _, ok := appSet[k]; !ok {
			appSet[k] = struct{}{}
			appsNeeded = append(appsNeeded, k)
		}
	}
	err := runPoolCtx(ctx, workers, len(appsNeeded), func(i int) error {
		_, err := s.AppContext(ctx, appsNeeded[i].w, appsNeeded[i].in)
		return err
	})
	if err != nil {
		return 0, err
	}

	// Phase 2: the simulations. Duplicate keys were removed by Plan;
	// singleflight in Run protects against callers racing Prewarm.
	err = runPoolCtx(ctx, workers, len(plan), func(i int) error {
		r := plan[i]
		_, err := s.RunContext(ctx, r.Workload, r.Input, r.PF, r.Variant)
		return err
	})
	if err != nil {
		return 0, err
	}
	return len(plan), nil
}

// runPool invokes f(0..n-1) over at most `workers` goroutines. Panics in
// workers are captured and re-raised on the caller's goroutine after the
// pool drains, preserving the serial path's panic semantics.
func runPool(workers, n int, f func(i int)) {
	_ = runPoolCtx(context.Background(), workers, n, func(i int) error {
		f(i)
		return nil
	})
}

// runPoolCtx invokes f(0..n-1) over at most `workers` goroutines,
// stopping dispatch at the first error or when ctx ends (in-flight
// invocations drain before it returns). The first error wins; if
// dispatch was aborted by ctx with no worker error, the ctx error is
// returned. Panics in workers are captured and re-raised on the
// caller's goroutine after the pool drains.
func runPoolCtx(ctx context.Context, workers, n int, f func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     = make(chan int)
		mu       sync.Mutex
		pans     []any
		firstErr error
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							pans = append(pans, r)
							mu.Unlock()
						}
					}()
					if err := f(i); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
					}
				}()
			}
		}()
	}
	aborted := false
dispatch:
	for i := 0; i < n; i++ {
		if failed() {
			aborted = true
			break dispatch
		}
		select {
		case next <- i:
		case <-ctx.Done():
			aborted = true
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if len(pans) > 0 {
		panic(pans[0])
	}
	mu.Lock()
	defer mu.Unlock()
	if firstErr != nil {
		return firstErr
	}
	if aborted {
		return ctx.Err()
	}
	return nil
}

// PlanKeys returns the sorted distinct key set of a plan (test helper
// and progress accounting).
func PlanKeys(plan []PlannedRun) []string {
	keys := make([]string, 0, len(plan))
	for _, r := range plan {
		keys = append(keys, r.Key())
	}
	sort.Strings(keys)
	return keys
}
