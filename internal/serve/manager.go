package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"sync"

	"rnrsim/internal/apps"
	"rnrsim/internal/audit"
	"rnrsim/internal/bench"
	"rnrsim/internal/obs"
	"rnrsim/internal/sim"
	"rnrsim/internal/telemetry"
)

// Submission/runtime errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull is returned when the bounded job queue has no room;
	// the HTTP layer answers 429 with a Retry-After hint.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining is returned once shutdown has begun; the HTTP layer
	// answers 503.
	ErrDraining = errors.New("serve: draining, not accepting jobs")
	// ErrUnknownJob is returned for lookups of ids never submitted.
	ErrUnknownJob = errors.New("serve: unknown job")
)

// Telemetry instrument names the manager maintains (exposed through
// /metrics and asserted on by the lifecycle tests).
const (
	CounterJobsSubmitted = "rnrd.jobs_submitted"
	CounterJobsCoalesced = "rnrd.jobs_coalesced"
	CounterJobsDone      = "rnrd.jobs_done"
	CounterJobsFailed    = "rnrd.jobs_failed"
	CounterJobsCanceled  = "rnrd.jobs_canceled"
	CounterJobsAbandoned = "rnrd.jobs_abandoned"
	CounterQueueRejects  = "rnrd.queue_rejects"
	CounterPhaseTicks    = "rnrd.phase_ticks"
	GaugeQueueDepth      = "rnrd.queue_depth"
	GaugeJobsActive      = "rnrd.jobs_active"
)

// Options configures a Manager. The zero value is usable: every field
// has a serving-appropriate default.
type Options struct {
	// DefaultScale is the input scale used when a submission leaves
	// Scale empty. Default "bench".
	DefaultScale string
	// QueueDepth bounds the number of jobs waiting to run; a full
	// queue rejects submissions with ErrQueueFull. Default 64.
	QueueDepth int
	// Workers is the number of jobs run concurrently. Default
	// GOMAXPROCS.
	Workers int
	// JobTimeout caps one job's total lifetime (queue wait included).
	// 0 means no timeout.
	JobTimeout time.Duration
	// WorkerID names this daemon in a cluster: it is reported by the
	// /v1/worker/status heartbeat responder so a coordinator can tell
	// workers apart. Empty outside worker mode.
	WorkerID string
	// Parallelism is handed to each bench.Suite (the width of
	// experiment prewarms). 0 means GOMAXPROCS.
	Parallelism int
	// Audit, when non-nil, attaches the correctness auditor
	// (internal/audit) to every simulation the daemon runs: each
	// per-scale suite propagates it into sim.Config.Audit, so every
	// served run is swept for invariant violations and fails loudly
	// instead of caching a corrupted result. Nil (the default) serves
	// unaudited runs.
	Audit *audit.Config
	// Obs, when non-nil, attaches the prefetch-lifecycle flight recorder
	// (internal/obs) to every simulation the daemon runs: served results
	// carry the `lifecycle` and `histograms` envelope sections, and the
	// recorder mirrors its histograms into Registry (unless the config
	// names its own mirror) so /metrics exposes obs_* Prometheus
	// histograms accumulated across jobs. Nil serves unobserved runs.
	Obs *obs.Config
	// Registry receives the manager's counters and gauges. Default
	// telemetry.Default.
	Registry *telemetry.Registry
	// Logf, if set, receives operational log lines.
	Logf func(format string, args ...any)
}

func (o *Options) fillDefaults() {
	if o.DefaultScale == "" {
		o.DefaultScale = "bench"
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Registry == nil {
		o.Registry = telemetry.Default
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Manager owns the job queue, the worker pool, the per-scale
// bench.Suites (and through them the singleflight result memoisation)
// and the content-addressed job store.
type Manager struct {
	opts Options

	baseCtx context.Context
	stopAll context.CancelFunc

	queue chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	st       *store
	suites   map[string]*bench.Suite
	draining bool
	active   int // jobs currently inside runJob

	cSubmitted, cCoalesced, cDone, cFailed *telemetry.Counter
	cCanceled, cAbandoned, cRejects        *telemetry.Counter
	cPhaseTicks                            *telemetry.Counter
}

// NewManager builds and starts a manager: its workers are live on
// return and Shutdown must eventually be called.
func NewManager(opts Options) *Manager {
	opts.fillDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:       opts,
		baseCtx:    ctx,
		stopAll:    cancel,
		queue:      make(chan *Job, opts.QueueDepth),
		st:         newStore(),
		suites:     make(map[string]*bench.Suite),
		cSubmitted: opts.Registry.Counter(CounterJobsSubmitted),
		cCoalesced: opts.Registry.Counter(CounterJobsCoalesced),
		cDone:      opts.Registry.Counter(CounterJobsDone),
		cFailed:    opts.Registry.Counter(CounterJobsFailed),
		cCanceled:  opts.Registry.Counter(CounterJobsCanceled),
		cAbandoned: opts.Registry.Counter(CounterJobsAbandoned),
		cRejects:   opts.Registry.Counter(CounterQueueRejects),
		cPhaseTicks: opts.Registry.Counter(
			CounterPhaseTicks),
	}
	opts.Registry.Probe(GaugeQueueDepth, func(uint64) float64 {
		return float64(len(m.queue))
	})
	opts.Registry.Probe(GaugeJobsActive, func(uint64) float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.active)
	})
	for i := 0; i < opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Options returns the effective (default-filled) options.
func (m *Manager) Options() Options { return m.opts }

// Registry returns the telemetry registry the manager reports into.
func (m *Manager) Registry() *telemetry.Registry { return m.opts.Registry }

// suite returns (building once) the bench.Suite for a scale. The suite
// is the content cache: every result ever simulated at that scale is
// memoised in it by run key.
func (m *Manager) suite(scale string) *bench.Suite {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.suiteLocked(scale)
}

func (m *Manager) suiteLocked(scale string) *bench.Suite {
	if s, ok := m.suites[scale]; ok {
		return s
	}
	sc, _ := apps.ParseScale(scale)
	s := bench.NewSuite(sc)
	s.Parallelism = m.opts.Parallelism
	s.Config.Audit = m.opts.Audit
	if m.opts.Obs != nil {
		oc := *m.opts.Obs
		if oc.Mirror == nil {
			oc.Mirror = m.opts.Registry
		}
		s.Config.Obs = &oc
	}
	logf := m.opts.Logf
	s.Progress = func(key string) { logf("simulating %s/%s", scale, key) }
	s.OnRunDone = func(key string, elapsed time.Duration) {
		logf("done %s/%s in %.1fs", scale, key, elapsed.Seconds())
	}
	m.suites[scale] = s
	return s
}

// FreshRuns sums completed fresh simulations across every scale's
// suite — the observable the duplicate-submission tests assert on.
func (m *Manager) FreshRuns() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, s := range m.suites {
		n += s.FreshRuns()
	}
	return n
}

// SubmitRun submits (or coalesces onto) the content-addressed job for
// the spec. The boolean reports whether a fresh job was created; a
// coalesced submission returns the existing live or completed job.
// A failed or cancelled previous generation is replaced by a fresh
// one, so transient failures don't wedge a content address.
func (m *Manager) SubmitRun(spec RunSpec) (*Job, bool, error) {
	if err := spec.Normalize(m.opts.DefaultScale); err != nil {
		return nil, false, err
	}
	id := RunJobID(spec)
	return m.submit(id, KindRun, spec, "")
}

// SubmitExperiment submits (or coalesces onto) a whole-table
// experiment job. spec only contributes Scale and Detach.
func (m *Manager) SubmitExperiment(experiment string, spec RunSpec) (*Job, bool, error) {
	if !slices.Contains(bench.ExperimentIDs, experiment) {
		return nil, false, fmt.Errorf("unknown experiment %q (have %v)",
			experiment, bench.ExperimentIDs)
	}
	if spec.Scale == "" {
		spec.Scale = m.opts.DefaultScale
	}
	if _, ok := apps.ParseScale(spec.Scale); !ok {
		return nil, false, fmt.Errorf("unknown scale %q (have %v)", spec.Scale, apps.ScaleNames)
	}
	id := ExperimentJobID(spec.Scale, experiment)
	return m.submit(id, KindExperiment, spec, experiment)
}

func (m *Manager) submit(id, kind string, spec RunSpec, experiment string) (*Job, bool, error) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, false, ErrDraining
	}
	if existing, ok := m.st.get(id); ok {
		st := existing.State()
		if st != StateFailed && st != StateCanceled {
			m.cCoalesced.Inc()
			m.mu.Unlock()
			existing.RenewLease() // a coalesced resubmission keeps the lease alive
			return existing, false, nil
		}
		// Previous generation is dead: fall through and replace it.
	}
	j := newJob(m.baseCtx, id, kind, spec, experiment, m.opts.JobTimeout)
	j.onAbandoned = func(*Job) { m.cAbandoned.Inc() }
	select {
	case m.queue <- j:
	default:
		m.cRejects.Inc()
		m.mu.Unlock()
		j.cancel() // release the ctx we just created
		return nil, false, ErrQueueFull
	}
	m.st.put(j)
	m.cSubmitted.Inc()
	m.mu.Unlock()
	m.opts.Logf("queued %s job %s", kind, id)
	return j, true, nil
}

// Job looks a job up by content address.
func (m *Manager) Job(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j, ok := m.st.get(id); ok {
		return j, nil
	}
	return nil, ErrUnknownJob
}

// Jobs lists every current-generation job, oldest first.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st.list()
}

// Cancel cancels a job by id.
func (m *Manager) Cancel(id string) error {
	j, err := m.Job(id)
	if err != nil {
		return err
	}
	j.Cancel("canceled by request")
	return nil
}

// Watch registers a client's interest in a job and returns the release
// to call on disconnect. When the last watcher of a non-detached
// active job releases, the job is cancelled (abandonment).
func (m *Manager) Watch(j *Job) (release func()) {
	j.addWatcher()
	var once sync.Once
	return func() { once.Do(j.removeWatcher) }
}

// RetryAfterJitterFrac is the relative spread applied to every
// Retry-After hint: the served value is uniform in base ± 25%.
const RetryAfterJitterFrac = 0.25

// retryAfter is the base backpressure hint attached to 429 responses.
const retryAfter = 2 * time.Second

// RetryAfterJittered returns the backpressure hint for one 429
// response: the base randomized ±25% so that a fleet of clients
// rejected in the same instant does not retry in the same instant too
// (a fixed hint synchronizes the stampede it exists to spread). Never
// below one second.
func (m *Manager) RetryAfterJittered() time.Duration {
	return JitterDuration(retryAfter, RetryAfterJitterFrac)
}

// JitterDuration spreads d uniformly over [d*(1-frac), d*(1+frac)],
// clamped below at one second.
func JitterDuration(d time.Duration, frac float64) time.Duration {
	if d <= 0 {
		return time.Second
	}
	lo := float64(d) * (1 - frac)
	span := float64(d) * 2 * frac
	out := time.Duration(lo + rand.Float64()*span)
	if out < time.Second {
		out = time.Second
	}
	return out
}

// RenewLease renews a leased job's expiry window by content address.
// ErrUnknownJob for addresses never submitted; false when the job
// exists but holds no live lease.
func (m *Manager) RenewLease(id string) (bool, error) {
	j, err := m.Job(id)
	if err != nil {
		return false, err
	}
	return j.RenewLease(), nil
}

// WorkerStatus is the heartbeat responder's payload: enough for a
// coordinator to judge health and load in one cheap GET.
type WorkerStatus struct {
	SchemaVersion string `json:"schema_version"`
	GeneratedAt   string `json:"generated_at"`

	WorkerID   string `json:"worker_id,omitempty"`
	Draining   bool   `json:"draining"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	Active     int    `json:"active"`
	JobsDone   uint64 `json:"jobs_done"`
	JobsFailed uint64 `json:"jobs_failed"`
}

// WorkerStatus snapshots the manager for the heartbeat responder.
func (m *Manager) WorkerStatus() WorkerStatus {
	schema, generated := sim.Stamp()
	m.mu.Lock()
	draining, active := m.draining, m.active
	m.mu.Unlock()
	return WorkerStatus{
		SchemaVersion: schema,
		GeneratedAt:   generated,
		WorkerID:      m.opts.WorkerID,
		Draining:      draining,
		QueueDepth:    len(m.queue),
		QueueCap:      m.opts.QueueDepth,
		Active:        active,
		JobsDone:      m.cDone.Load(),
		JobsFailed:    m.cFailed.Load(),
	}
}

// Draining reports whether shutdown has begun.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Shutdown stops accepting jobs and drains: queued and running jobs
// run to completion. If ctx expires first, every remaining job's
// context is cancelled (the simulator stops within one tick batch) and
// Shutdown still waits for the workers to record the cancellations
// before returning ctx's error.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue)
	}
	m.mu.Unlock()
	m.opts.Logf("draining: waiting for in-flight jobs")
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.opts.Logf("drain deadline hit: cancelling remaining jobs")
		m.stopAll()
		<-done
		return ctx.Err()
	}
}

// worker pulls jobs until the queue is closed and drained.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.runJob(j)
	}
}

// runJob executes one job to a terminal state. Panics out of the bench
// layer (experiment-definition bugs) are converted to job failures so
// one bad request cannot take the daemon down.
func (m *Manager) runJob(j *Job) {
	if j.State().Terminal() { // cancelled while queued
		return
	}
	if err := j.ctx.Err(); err != nil {
		m.finishErr(j, err)
		return
	}
	if !j.setRunning() {
		return
	}
	m.mu.Lock()
	m.active++
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		m.active--
		m.mu.Unlock()
	}()

	defer func() {
		if r := recover(); r != nil {
			m.finishErr(j, fmt.Errorf("panic: %v", r))
		}
	}()

	ctx := bench.WithProgress(j.ctx, func(ev bench.ProgressEvent) {
		m.cPhaseTicks.Inc()
		j.log.Publish(Event{Type: EventPhase, Phase: &PhaseRef{
			Key:       ev.Key,
			Iteration: ev.Iteration,
			Cycle:     ev.Cycle,
		}})
	})
	suite := m.suite(j.Spec.Scale)

	switch j.Kind {
	case KindRun:
		var res *sim.Result
		var err error
		if len(j.Spec.Jobs) > 0 {
			res, err = suite.RunCoRunContext(ctx, j.Spec.coRunJobs(),
				sim.PrefetcherKind(j.Spec.Prefetcher), j.Spec.CrossCore)
		} else {
			v, _ := bench.NamedVariant(j.Spec.Variant)
			res, err = suite.RunContext(ctx, j.Spec.Workload, j.Spec.Input,
				sim.PrefetcherKind(j.Spec.Prefetcher), v)
		}
		if err != nil {
			m.finishErr(j, err)
			return
		}
		m.finishDone(j, RunResult{
			Key:        j.Spec.key(),
			Scale:      j.Spec.Scale,
			ResultJSON: res.Export(),
		})
	case KindExperiment:
		if _, err := suite.PrewarmContext(ctx, suite.Plan(j.Experiment)); err != nil {
			m.finishErr(j, err)
			return
		}
		runner, ok := suite.Runner(j.Experiment)
		if !ok {
			m.finishErr(j, fmt.Errorf("unknown experiment %q", j.Experiment))
			return
		}
		m.finishDone(j, TableResult{
			Experiment: j.Experiment,
			Scale:      j.Spec.Scale,
			Table:      runner(), // all cache hits after the prewarm
		})
	default:
		m.finishErr(j, fmt.Errorf("unknown job kind %q", j.Kind))
	}
}

// finishDone records a successful job with result as its payload. Like
// finishErr it counts the outcome before finishing the job, so a caller
// woken by the job's completion already sees it counted.
func (m *Manager) finishDone(j *Job, result any) {
	payload, err := json.Marshal(result)
	if err != nil {
		m.finishErr(j, err)
		return
	}
	m.cDone.Inc()
	j.finish(StateDone, payload, "")
}

// finishErr records a terminal failure, distinguishing cancellation
// (client disconnect, explicit cancel, timeout, shutdown) from real
// errors.
func (m *Manager) finishErr(j *Job, err error) {
	if bench.IsCancellation(err) {
		m.cCanceled.Inc()
		j.finish(StateCanceled, nil, err.Error())
		m.opts.Logf("job %s canceled: %v", j.ID, err)
		return
	}
	m.cFailed.Inc()
	j.finish(StateFailed, nil, err.Error())
	m.opts.Logf("job %s failed: %v", j.ID, err)
}

// RunResult is the payload of a completed run job: the bench run key
// plus the stamped result export — the same record a cmd/experiments
// -json dump contains for the same key.
type RunResult struct {
	Key   string `json:"key"`
	Scale string `json:"scale"`
	sim.ResultJSON
}

// TableResult is the payload of a completed experiment job.
type TableResult struct {
	Experiment string       `json:"experiment"`
	Scale      string       `json:"scale"`
	Table      *bench.Table `json:"table"`
}
