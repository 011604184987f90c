// Run planning. An experiment's runner is the only list of the runs its
// table needs: Plan finds them by dry-running the runner on a throwaway
// Suite whose run path records each request (key, machine, app builder)
// and answers it with a zero placeholder result instead of simulating.
// Prewarm replays the recorded runs on the real suite over a bounded
// worker pool (at most Suite.Parallelism wide); the singleflight
// memoisation in Suite.run guarantees shared keys (the baselines feed
// most figures) are simulated exactly once. Table assembly afterwards
// is serial and entirely cache hits, so the rendered tables are
// byte-identical to a serial run — the plan only changes *when* runs
// happen, never which results feed which cells.
//
// A dry run is exact as long as which runs a runner requests does not
// depend on the results of earlier ones. The planner-completeness tests
// in plan_test.go hold every experiment to that: after
// Prewarm(Plan(id)), assembly requests exactly the planned keys and
// simulates nothing fresh.
package bench

import (
	"context"
	"sync"

	"rnrsim/internal/apps"
	"rnrsim/internal/cache"
	"rnrsim/internal/sim"
)

// experiment is one entry of the experiment registry.
type experiment struct {
	id  string
	run func(*Suite) *Table
	// static marks the tables that simulate nothing. Plan never
	// dry-runs them: tableIII would build every input.
	static bool
	title  string
}

// registry lists every experiment in presentation order (the order
// cmd/experiments emits them in). init fills it rather than its
// declaration because the runners read their titles from it.
var registry []experiment

// ExperimentIDs lists the registry's ids in presentation order.
var ExperimentIDs []string

func init() {
	registry = []experiment{
		{"tableII", (*Suite).TableII, true, "Baseline configuration (paper values, scaled capacities in use)"},
		{"tableIII", (*Suite).TableIII, true, "Workload inputs (synthetic stand-ins, scaled)"},
		{"fig1", (*Suite).Fig1, false, "Prefetcher coverage and accuracy, PageRank on amazon"},
		{"fig6", (*Suite).Fig6, false, "Speedup over no-prefetch baseline (100 iterations)"},
		{"fig7", (*Suite).Fig7, false, "L2 demand MPKI"},
		{"fig8", (*Suite).Fig8, false, "Miss coverage vs baseline misses"},
		{"fig9", (*Suite).Fig9, false, "Prefetch accuracy"},
		{"fig10", (*Suite).Fig10, false, "Replay timing control ablation: speedup over baseline (100 iters)"},
		{"fig11", (*Suite).Fig11, false, "RnR prefetch timeliness (fractions of issued prefetches)"},
		{"fig12", (*Suite).Fig12, false, "Additional off-chip traffic vs baseline (%)"},
		{"fig13", (*Suite).Fig13, false, "RnR metadata storage overhead (% of input size)"},
		{"fig14", (*Suite).Fig14, false, "Window size sweep: geomean speedup and storage overhead"},
		{"tableIV", (*Suite).TableIV, true, "Design comparison with the most related prefetchers"},
		{"record-overhead", (*Suite).RecordOverhead, false, "Record iteration overhead vs baseline iteration (%)"},
		{"hw-overhead", (*Suite).HardwareOverhead, true, "RnR per-core hardware budget"},
		{"ctx-switch", (*Suite).CtxSwitch, false, "Context-switch resilience (PageRank/urand, periodic descheduling)"},
		{"core-scaling", (*Suite).CoreScaling, false, "Multicore scalability (PageRank/amazon)"},
		{"design-choices", (*Suite).DesignChoices, false, "§III design-choice ablation (PageRank/urand)"},
		{"corun", (*Suite).CoRun, false, "Co-run interference: PageRank + spCG sharing a 2-core coherent LLC"},
	}
	for _, e := range registry {
		ExperimentIDs = append(ExperimentIDs, e.id)
	}
}

func lookup(id string) (experiment, bool) {
	for _, e := range registry {
		if e.id == id {
			return e, true
		}
	}
	return experiment{}, false
}

// ExperimentTitle returns an experiment's title ("" for unknown ids).
func ExperimentTitle(id string) string {
	e, _ := lookup(id)
	return e.title
}

// Runner returns the table runner for an experiment id.
func (s *Suite) Runner(id string) (func() *Table, bool) {
	e, ok := lookup(id)
	if !ok {
		return nil, false
	}
	return func() *Table { return e.run(s) }, true
}

// newTable starts experiment id's table under its registry title.
func newTable(id string, header ...string) *Table {
	return &Table{ID: id, Title: ExperimentTitle(id), Header: header}
}

// PlannedRun is one simulation, as Suite.run receives it: the
// memoisation key, the machine and the app to run on it.
type PlannedRun struct {
	Key string
	// Workload and Input name a solo run's app, which the suite builds
	// once and shares. Runs whose app is composed per run (co-runs,
	// core-scaling) leave them empty and set compose, which takes the
	// suite that simulates the run: a run recorded on a dry-run suite
	// builds on the real one.
	Workload, Input string
	cfg             sim.Config
	compose         func(*Suite) (*apps.App, error)
}

// app returns the run's app on the suite that simulates it.
func (p PlannedRun) app(ctx context.Context, s *Suite) (*apps.App, error) {
	if p.compose != nil {
		return p.compose(s)
	}
	return s.AppContext(ctx, p.Workload, p.Input)
}

// planLog is a dry-run suite's record of the runs it was asked for,
// deduplicated by key in first-seen order.
type planLog struct {
	seen map[string]struct{}
	runs []PlannedRun
}

// record logs p and returns the placeholder a dry run answers with: a
// zero result, with one private-L2 entry per core for the runners that
// index them. Every Result metric guards its zero denominators.
func (l *planLog) record(p PlannedRun) *sim.Result {
	if _, dup := l.seen[p.Key]; !dup {
		l.seen[p.Key] = struct{}{}
		l.runs = append(l.runs, p)
	}
	return &sim.Result{CoreL2: make([]cache.Stats, p.cfg.Cores)}
}

// Plan returns the runs the given experiments need, deduplicated by
// key, in deterministic first-seen order, by dry-running each
// simulating experiment's runner. Planning simulates nothing and builds
// no app. Unknown ids plan nothing (Runner reports them; the CLI validates
// before planning).
func (s *Suite) Plan(ids ...string) []PlannedRun {
	return s.dryRun(func(dry *Suite) {
		for _, id := range ids {
			if e, ok := lookup(id); ok && !e.static {
				e.run(dry)
			}
		}
	})
}

// dryRun calls f on a throwaway dry-run suite with s's Scale, Config
// and ComposeIters, and returns the runs f asked it for.
func (s *Suite) dryRun(f func(dry *Suite)) []PlannedRun {
	log := &planLog{seen: make(map[string]struct{})}
	f(&Suite{Scale: s.Scale, Config: s.Config, ComposeIters: s.ComposeIters, plan: log})
	return log.runs
}

// Prewarm executes every planned run over a bounded worker pool
// (Suite.Parallelism wide), each through the suite's memoised run path.
// It first builds the distinct solo workloads the plan touches —
// workload construction is itself expensive at bench/large scale — then
// fans out the simulations. Returns the number
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

	// Phase 1: the distinct solo-run apps in parallel, so the run
	// fan-out below does not serialize on a thundering herd of workers
	// all waiting for the first app build. Composed apps build per run.
	type wi struct{ w, in string }
	appSet := make(map[wi]struct{})
	var appsNeeded []wi
	for _, r := range plan {
		k := wi{r.Workload, r.Input}
		if _, ok := appSet[k]; !ok && r.compose == nil {
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
	// singleflight in run protects against callers racing Prewarm.
	err = runPoolCtx(ctx, workers, len(plan), func(i int) error {
		_, err := s.run(ctx, plan[i])
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
