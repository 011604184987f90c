package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rnrsim/internal/apps"
	"rnrsim/internal/rnr"
	"rnrsim/internal/sim"
	"rnrsim/internal/telemetry"
)

// Suite memoises workloads and simulation results so the per-figure
// runners can share runs (the baseline run, for example, feeds Fig. 6, 7,
// 8, 9 and 12).
//
// Suite is safe for concurrent callers. App, Run and RunCoRunContext use
// singleflight memoisation: the first caller of a key computes it while
// later callers block on the same in-flight entry, so an expensive run
// is simulated exactly once no matter how many goroutines ask for it, in
// any order.
// Combined with the run planner (plan.go) this is what makes the parallel
// experiment engine deterministic: Prewarm fans the runs Plan recorded
// out over a bounded worker pool, and the subsequent serial table
// assembly is all cache hits, producing byte-identical output to a fully
// serial run.
type Suite struct {
	Scale  apps.Scale
	Config sim.Config
	// ComposeIters is the iteration count speedups are composed to
	// ("we use 100 iterations for all tested applications", §VII-A.1).
	ComposeIters int

	// Parallelism bounds the worker pool used by Prewarm (and the
	// concurrent sections of experiment runners). 0 means
	// runtime.GOMAXPROCS(0). It does not limit direct App/Run callers —
	// they are only bounded by their own concurrency.
	Parallelism int

	mu        sync.Mutex
	apps      map[string]*appCall
	results   map[string]*runCall
	requested map[string]struct{} // every run key ever asked for (hit or miss)

	// plan, when set, makes this a dry-run suite (see Plan): run logs
	// each request here and answers it with a placeholder result.
	plan *planLog

	// freshRuns counts completed fresh simulations (memoised hits and
	// cancelled runs excluded). The serving layer's coalescing tests
	// use it to prove that duplicate submissions share one simulation.
	freshRuns atomic.Uint64

	// Progress, if set, is called before each fresh simulation run.
	// It may be called from multiple goroutines concurrently; the
	// callback must serialize its own output.
	Progress func(key string)

	// OnRunDone, if set, is called after each fresh simulation run
	// completes, with the wall-clock time the simulation took. Like
	// Progress it may be invoked concurrently.
	OnRunDone func(key string, elapsed time.Duration)

	// Instrument, if set, is asked for a telemetry recorder per fresh
	// run (return nil to leave that run uninstrumented). After the run
	// completes, OnInstrumented (if set) receives the recorder back so
	// the caller can export its series/trace. Memoised (repeated) runs
	// are not re-instrumented.
	Instrument     func(key string) *telemetry.Recorder
	OnInstrumented func(key string, rec *telemetry.Recorder)
}

// appCall is one singleflight workload build: the creator closes done
// once app/err are set; everyone else blocks on done.
type appCall struct {
	done chan struct{}
	app  *apps.App
	err  error
}

// runCall is one singleflight simulation.
type runCall struct {
	done chan struct{}
	res  *sim.Result
	err  error
}

// NewSuite builds a suite at the given scale on the scaled Table II
// machine.
func NewSuite(scale apps.Scale) *Suite {
	return &Suite{
		Scale:        scale,
		Config:       sim.Scaled(),
		ComposeIters: 100,
		apps:         make(map[string]*appCall),
		results:      make(map[string]*runCall),
		requested:    make(map[string]struct{}),
	}
}

// parallelism resolves the effective worker-pool width.
func (s *Suite) parallelism() int {
	if s.Parallelism > 0 {
		return s.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// App returns (building once) the workload on the input. Concurrent
// callers of the same key share one build; different keys build in
// parallel.
func (s *Suite) App(workload, input string) *apps.App {
	app, err := s.AppContext(context.Background(), workload, input)
	if err != nil {
		panic(err) // experiment-definition bug, not a runtime condition
	}
	return app
}

// AppContext is App with cancellation and an error return: a caller
// whose ctx ends while waiting on another goroutine's build gives up
// (the build itself keeps running and lands in the cache), and build
// failures are returned instead of panicking. Successful builds are
// memoised exactly as App memoises them.
func (s *Suite) AppContext(ctx context.Context, workload, input string) (*apps.App, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	key := workload + "/" + input
	s.mu.Lock()
	c, ok := s.apps[key]
	if !ok {
		c = &appCall{done: make(chan struct{})}
		s.apps[key] = c
	}
	s.mu.Unlock()
	if ok {
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, fmt.Errorf("bench: waiting for app %s: %w", key, ctx.Err())
		}
	} else {
		func() {
			defer close(c.done)
			c.app, c.err = apps.Build(workload, input, s.Scale)
		}()
	}
	return c.app, c.err
}

// Variant customises a run beyond the prefetcher kind.
type Variant struct {
	Tag    string // distinguishes cached results; "" for plain runs
	Mutate func(*sim.Config)
}

// RunKey is the canonical memoisation key
// ("workload/input/prefetcher/tag"). The serving layer derives its
// content-addressed job IDs from it, so a duplicate HTTP submission
// lands on the same job and, underneath, the same singleflight cache
// entry as every other request for that simulation.
func RunKey(workload, input string, pf sim.PrefetcherKind, tag string) string {
	return fmt.Sprintf("%s/%s/%s/%s", workload, input, pf, tag)
}

// fixedVariants are the variants with a fixed wire name: the tag, or
// "plain" for the plain variant's empty one.
var fixedVariants = func() []Variant {
	vs := []Variant{{}, IdealVariant(), CtxSwitchVariant(), RecordAllVariant(), LLCDestVariant()}
	for _, ctl := range timingControls {
		vs = append(vs, ControlVariant(ctl))
	}
	return vs
}()

// wireName is a fixed variant's wire name.
func wireName(v Variant) string {
	if v.Tag == "" {
		return "plain"
	}
	return v.Tag
}

// NamedVariant resolves a stable wire name to a run variant — the
// subset of Variant configurations expressible over the HTTP API
// (functions don't serialise; tags do). The names are exactly the
// Variant tags, so a resolved variant reproduces the memoisation key
// its tag appears in. The plain variant is "plain" or the empty name.
// Window sweeps use "winN" (N in cache lines).
func NamedVariant(name string) (Variant, bool) {
	if name == "" {
		return Variant{}, true
	}
	for _, v := range fixedVariants {
		if wireName(v) == name {
			return v, true
		}
	}
	var win uint64
	if n, err := fmt.Sscanf(name, "win%d", &win); n == 1 && err == nil && win > 0 {
		if v := WindowVariant(win); v.Tag == name { // reject "win07"-style aliases
			return v, true
		}
	}
	return Variant{}, false
}

// VariantNames lists the fixed wire names NamedVariant accepts (the
// parametric "winN" family excluded), for API discovery.
func VariantNames() []string {
	names := make([]string, len(fixedVariants))
	for i, v := range fixedVariants {
		names[i] = wireName(v)
	}
	return names
}

// Run simulates (memoised, singleflight) the workload/input under the
// prefetcher. Exactly one fresh simulation happens per distinct key even
// under concurrent callers; the losers of the insert race block until
// the winner's result is ready.
func (s *Suite) Run(workload, input string, pf sim.PrefetcherKind, v Variant) *sim.Result {
	r, err := s.RunContext(context.Background(), workload, input, pf, v)
	if err != nil {
		panic(err)
	}
	return r
}

// IsCancellation reports whether err is (or wraps) a context
// cancellation or deadline expiry — the errors RunContext returns for
// abandoned runs, which deliberately do not poison the memoisation
// cache.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RunContext is Run with cancellation and an error return. The
// singleflight contract holds: exactly one fresh simulation per key
// under any caller interleaving. Cancellation interacts with the cache
// in two deliberate ways:
//
//   - A cancelled *winner* removes its cache entry before waking its
//     waiters, so the cancellation never poisons the cache — the next
//     caller of the key starts a fresh simulation.
//   - A *waiter* whose winner was cancelled (but whose own ctx is still
//     alive) retries and typically becomes the new winner, so an
//     unrelated client's disconnect cannot fail another client's job.
//
// A waiter whose own ctx ends while blocked gives up immediately; the
// in-flight simulation it was waiting on is unaffected.
func (s *Suite) RunContext(ctx context.Context, workload, input string, pf sim.PrefetcherKind, v Variant) (*sim.Result, error) {
	cfg := s.Config
	cfg.Prefetcher = pf
	if v.Mutate != nil {
		v.Mutate(&cfg)
	}
	return s.run(ctx, PlannedRun{
		Key:      RunKey(workload, input, pf, v.Tag),
		Workload: workload,
		Input:    input,
		cfg:      cfg,
	})
}

// run is the one memoised, singleflight run path: the solo runs of
// RunContext, the co-runs of RunCoRunContext and the core-scaling runs
// all simulate here, keyed by p.Key, on p.cfg (whose Name becomes the
// key) over p's app. A dry-run suite only logs p.
func (s *Suite) run(ctx context.Context, p PlannedRun) (*sim.Result, error) {
	if s.plan != nil {
		return s.plan.record(p), nil
	}
	key := p.Key
	for {
		s.mu.Lock()
		s.requested[key] = struct{}{}
		c, ok := s.results[key]
		if !ok {
			c = &runCall{done: make(chan struct{})}
			s.results[key] = c
		}
		s.mu.Unlock()

		if !ok {
			s.runFresh(ctx, c, p)
		} else {
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, fmt.Errorf("bench: waiting for %s: %w", key, ctx.Err())
			}
			if IsCancellation(c.err) && ctx.Err() == nil {
				// The winner was cancelled; its entry was removed before
				// c.done closed. We are still alive: retry fresh.
				continue
			}
		}
		return c.res, c.err
	}
}

// runFresh is the singleflight winner's path: simulate, publish the
// outcome on c, wake the waiters. A cancelled run deletes its map entry
// *before* close(c.done) so retrying waiters cannot re-adopt the dead
// entry.
func (s *Suite) runFresh(ctx context.Context, c *runCall, p PlannedRun) {
	defer close(c.done) // never leave waiters hanging, even on panic
	c.res, c.err = s.simulate(ctx, p)
	if IsCancellation(c.err) {
		s.mu.Lock()
		if s.results[p.Key] == c {
			delete(s.results, p.Key)
		}
		s.mu.Unlock()
	}
}

// simulate performs one fresh run (the singleflight winner's path).
func (s *Suite) simulate(ctx context.Context, p PlannedRun) (*sim.Result, error) {
	app, err := p.app(ctx, s)
	if err != nil {
		return nil, err
	}
	key, cfg := p.Key, p.cfg
	cfg.Name = key
	if fn := progressFrom(ctx); fn != nil {
		cfg.OnIteration = func(iter int, cycle uint64) {
			fn(ProgressEvent{Key: key, Iteration: iter, Cycle: cycle})
		}
	}
	if s.Progress != nil {
		s.Progress(key)
	}
	var rec *telemetry.Recorder
	if s.Instrument != nil {
		rec = s.Instrument(key)
		cfg.Telemetry = rec
	}
	start := time.Now()
	r, err := sim.RunContext(ctx, cfg, app)
	if err != nil {
		return nil, err
	}
	s.freshRuns.Add(1)
	if rec != nil && s.OnInstrumented != nil {
		s.OnInstrumented(key, rec)
	}
	if s.OnRunDone != nil {
		s.OnRunDone(key, time.Since(start))
	}
	return r, nil
}

// FreshRuns returns how many fresh (non-memoised) simulations have
// completed successfully so far. Coalescing tests assert on deltas of
// this counter.
func (s *Suite) FreshRuns() uint64 { return s.freshRuns.Load() }

// ProgressEvent is one live progress tick from a fresh simulation: the
// run key it belongs to and the iteration barrier that just opened.
type ProgressEvent struct {
	Key       string
	Iteration int
	Cycle     uint64
}

// progressCtxKey carries a per-caller progress callback through
// RunContext into the simulator's OnIteration hook.
type progressCtxKey struct{}

// WithProgress returns a ctx that delivers per-iteration progress
// events for every fresh simulation started under it. Only the
// singleflight winner's callback fires (memoised hits simulate
// nothing); the serving layer fans the winner's events out to every
// subscriber of the coalesced job.
func WithProgress(ctx context.Context, fn func(ProgressEvent)) context.Context {
	if fn == nil {
		return ctx
	}
	return context.WithValue(ctx, progressCtxKey{}, fn)
}

func progressFrom(ctx context.Context) func(ProgressEvent) {
	fn, _ := ctx.Value(progressCtxKey{}).(func(ProgressEvent))
	return fn
}

// RequestedKeys returns a snapshot of every run key (co-run keys
// included) asked for so far, memoised hits included. The
// planner-completeness tests use it to verify that a plan covers
// exactly the keys table assembly requests.
func (s *Suite) RequestedKeys() map[string]struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]struct{}, len(s.requested))
	for k := range s.requested {
		out[k] = struct{}{}
	}
	return out
}

// Baseline returns the no-prefetcher run.
func (s *Suite) Baseline(workload, input string) *sim.Result {
	return s.Run(workload, input, sim.PFNone, Variant{})
}

// IdealVariant is the infinite-LLC configuration of the Fig. 6 bound.
func IdealVariant() Variant {
	return Variant{
		Tag:    "ideal",
		Mutate: func(c *sim.Config) { c.IdealLLC = true },
	}
}

// Ideal returns the infinite-LLC run.
func (s *Suite) Ideal(workload, input string) *sim.Result {
	return s.Run(workload, input, sim.PFNone, IdealVariant())
}

// ControlVariant selects an RnR replay timing control (Fig. 10/11).
func ControlVariant(ctl rnr.TimingControl) Variant {
	return Variant{
		Tag:    "ctl-" + ctl.String(),
		Mutate: func(c *sim.Config) { c.RnRControl = ctl },
	}
}

// RnRWithControl returns an RnR run under the given timing control.
func (s *Suite) RnRWithControl(workload, input string, ctl rnr.TimingControl) *sim.Result {
	return s.Run(workload, input, sim.PFRnR, ControlVariant(ctl))
}

// comparisonSet is the Fig. 6-9 prefetcher line-up. DROPLET is skipped for
// spCG ("the evaluation results do not include DROPLET when running
// spCG", §VII).
func comparisonSet(workload string) []sim.PrefetcherKind {
	set := []sim.PrefetcherKind{
		sim.PFNextLine, sim.PFBingo, sim.PFSteMS, sim.PFMISB,
	}
	if workload != "spcg" {
		set = append(set, sim.PFDroplet)
	}
	return append(set, sim.PFRnR, sim.PFRnRCombined)
}
