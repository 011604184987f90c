package serve

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"rnrsim/internal/apps"
	"rnrsim/internal/bench"
	"rnrsim/internal/sim"
	"rnrsim/internal/telemetry"
)

// newTestManager builds a manager on a private telemetry registry
// (counter assertions must not see other tests' jobs) at test scale,
// and tears it down on cleanup.
func newTestManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	if opts.DefaultScale == "" {
		opts.DefaultScale = "test"
	}
	if opts.Registry == nil {
		opts.Registry = telemetry.NewRegistry()
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	m := NewManager(opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("cleanup shutdown: %v", err)
		}
	})
	return m
}

// testSpec is the canonical fast test simulation (~0.2s at test scale).
func testSpec() RunSpec {
	return RunSpec{Workload: "pagerank", Input: "urand", Prefetcher: "none", Scale: "test"}
}

// holdRuns blocks every fresh simulation at its start until the
// returned release func is called. The queue-full tests need the
// worker provably occupied while they fill the queue; with the
// event-driven core a test-scale run finishes in milliseconds, so
// racing the real sim duration is no longer reliable. Must be called
// before any job is submitted at the scale (the worker reads
// Suite.Progress without locking).
func holdRuns(t *testing.T, m *Manager, scale string) (release func()) {
	t.Helper()
	s := m.suite(scale)
	progress := s.Progress
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	s.Progress = func(key string) {
		progress(key)
		<-gate
	}
	t.Cleanup(release) // runs before the manager's Shutdown cleanup
	return release
}

func waitState(t *testing.T, j *Job, want JobState, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st := j.State()
		if st == want {
			return
		}
		if st.Terminal() {
			t.Fatalf("job reached terminal state %q while waiting for %q (err %q)", st, want, j.View(false).Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job never reached state %q (stuck at %q)", want, j.State())
}

func counterValue(r *telemetry.Registry, name string) uint64 {
	return r.Counter(name).Load()
}

// waitPhase blocks until the job's event stream carries a phase tick —
// proof the simulator tick loop is live (StateRunning alone fires
// before the workload finishes building).
func waitPhase(t *testing.T, j *Job, timeout time.Duration) {
	t.Helper()
	history, live, cancel := j.log.SubscribeFrom(-1)
	defer cancel()
	for _, ev := range history {
		if ev.Type == EventPhase {
			return
		}
	}
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				t.Fatalf("job finished (state %q) before any phase tick", j.State())
			}
			if ev.Type == EventPhase {
				return
			}
		case <-deadline:
			t.Fatal("no phase tick observed")
		}
	}
}

// TestJobLifecycle drives one run job queued → running → done and
// checks the counters, the stamped view and the result payload.
func TestJobLifecycle(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	j, fresh, err := m.SubmitRun(testSpec())
	if err != nil || !fresh {
		t.Fatalf("SubmitRun = (%v, fresh=%v), want fresh job", err, fresh)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not finish")
	}
	if st := j.State(); st != StateDone {
		t.Fatalf("state = %q, want done (err %q)", st, j.View(false).Error)
	}
	reg := m.Registry()
	if got := counterValue(reg, CounterJobsSubmitted); got != 1 {
		t.Errorf("%s = %d, want 1", CounterJobsSubmitted, got)
	}
	if got := counterValue(reg, CounterJobsDone); got != 1 {
		t.Errorf("%s = %d, want 1", CounterJobsDone, got)
	}
	if got := counterValue(reg, CounterPhaseTicks); got == 0 {
		t.Errorf("%s = 0, want per-iteration progress ticks", CounterPhaseTicks)
	}

	v := j.View(true)
	if v.SchemaVersion != sim.ExportSchemaVersion {
		t.Errorf("view schema = %q, want %q", v.SchemaVersion, sim.ExportSchemaVersion)
	}
	if _, err := time.Parse(time.RFC3339, v.GeneratedAt); err != nil {
		t.Errorf("view generated_at %q: %v", v.GeneratedAt, err)
	}
	var res RunResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatalf("result payload: %v", err)
	}
	wantKey := bench.RunKey("pagerank", "urand", sim.PFNone, "")
	if res.Key != wantKey || res.Scale != "test" {
		t.Errorf("result key/scale = %q/%q, want %q/test", res.Key, res.Scale, wantKey)
	}
	if res.Cycles == 0 || res.SchemaVersion != sim.ExportSchemaVersion {
		t.Errorf("result body not a stamped export: cycles=%d schema=%q", res.Cycles, res.SchemaVersion)
	}
}

// TestDuplicateSubmissionCoalesces is the content-addressing
// acceptance check: two submissions of the same spec share one job and
// one fresh simulation, and the served result is byte-identical
// (modulo the envelope timestamp) to what the bench engine exports
// directly for the same key.
func TestDuplicateSubmissionCoalesces(t *testing.T) {
	m := newTestManager(t, Options{Workers: 2})
	spec := testSpec()
	j1, fresh1, err1 := m.SubmitRun(spec)
	j2, fresh2, err2 := m.SubmitRun(spec)
	if err1 != nil || err2 != nil {
		t.Fatalf("submit: %v / %v", err1, err2)
	}
	if !fresh1 || fresh2 {
		t.Errorf("fresh flags = %v,%v; want true,false", fresh1, fresh2)
	}
	if j1 != j2 || j1.ID != RunJobID(spec) {
		t.Fatalf("submissions did not coalesce: %q vs %q", j1.ID, j2.ID)
	}
	<-j1.Done()
	if st := j1.State(); st != StateDone {
		t.Fatalf("state = %q, want done (err %q)", st, j1.View(false).Error)
	}
	if n := m.suite(spec.Scale).FreshRuns(); n != 1 {
		t.Errorf("FreshRuns = %d, want exactly 1 (singleflight)", n)
	}
	if got := counterValue(m.Registry(), CounterJobsCoalesced); got != 1 {
		t.Errorf("%s = %d, want 1", CounterJobsCoalesced, got)
	}

	// A third submission after completion is a pure cache hit.
	j3, fresh3, err := m.SubmitRun(spec)
	if err != nil || fresh3 || j3 != j1 {
		t.Fatalf("post-completion submit = (%p, fresh=%v, %v), want cached job %p", j3, fresh3, err, j1)
	}

	// Served result == direct engine result, modulo generated_at.
	var served RunResult
	if err := json.Unmarshal(j1.View(true).Result, &served); err != nil {
		t.Fatalf("served payload: %v", err)
	}
	direct := bench.NewSuite(apps.ScaleTest).
		Run("pagerank", "urand", sim.PFNone, bench.Variant{}).Export()
	servedBody := served.ResultJSON
	servedBody.GeneratedAt = ""
	direct.GeneratedAt = ""
	sb, _ := json.Marshal(servedBody)
	db, _ := json.Marshal(direct)
	if string(sb) != string(db) {
		t.Errorf("served result differs from direct engine export\nserved: %s\ndirect: %s", sb, db)
	}
}

// TestCancelMidRun cancels a running job and checks the cancellation
// reaches the simulator tick loop (observable through the
// telemetry.Default runs-cancelled counter) without poisoning the
// result cache.
func TestCancelMidRun(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	before := telemetry.Default.Counter(sim.CounterRunsCancelled).Load()

	j, _, err := m.SubmitRun(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitPhase(t, j, 10*time.Second) // the tick loop is demonstrably live
	j.Cancel("test cancel")
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled job did not finish")
	}
	if st := j.State(); st != StateCanceled {
		t.Fatalf("state = %q, want canceled", st)
	}
	if after := telemetry.Default.Counter(sim.CounterRunsCancelled).Load(); after <= before {
		t.Errorf("%s did not increase (%d → %d): cancellation never reached the tick loop",
			sim.CounterRunsCancelled, before, after)
	}
	if got := counterValue(m.Registry(), CounterJobsCanceled); got != 1 {
		t.Errorf("%s = %d, want 1", CounterJobsCanceled, got)
	}

	// The cancelled generation must not wedge its content address: a
	// resubmission replaces it and completes.
	j2, fresh, err := m.SubmitRun(testSpec())
	if err != nil || !fresh {
		t.Fatalf("resubmit after cancel = (fresh=%v, %v), want fresh", fresh, err)
	}
	if j2 == j {
		t.Fatal("resubmission returned the dead generation")
	}
	<-j2.Done()
	if st := j2.State(); st != StateDone {
		t.Fatalf("resubmitted job state = %q, want done (err %q)", st, j2.View(false).Error)
	}
}

// TestAbandonment checks watcher bookkeeping: when the last watcher of
// a non-detached running job disconnects the job is cancelled, while a
// detached job survives the same sequence.
func TestAbandonment(t *testing.T) {
	m := newTestManager(t, Options{Workers: 2})

	j, _, err := m.SubmitRun(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	release := m.Watch(j)
	waitState(t, j, StateRunning, 10*time.Second)
	release()
	release() // idempotent: second call must not double-decrement
	<-j.Done()
	if st := j.State(); st != StateCanceled {
		t.Fatalf("abandoned job state = %q, want canceled", st)
	}
	if got := counterValue(m.Registry(), CounterJobsAbandoned); got != 1 {
		t.Errorf("%s = %d, want 1", CounterJobsAbandoned, got)
	}

	spec := testSpec()
	spec.Prefetcher = "nextline" // distinct content address
	spec.Detach = true
	jd, _, err := m.SubmitRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	rel2 := m.Watch(jd)
	waitState(t, jd, StateRunning, 10*time.Second)
	rel2()
	<-jd.Done()
	if st := jd.State(); st != StateDone {
		t.Fatalf("detached job state = %q, want done (err %q)", st, jd.View(false).Error)
	}
}

// TestQueueFullRejects fills a Workers=1/QueueDepth=1 manager and
// checks the third submission is rejected with ErrQueueFull.
func TestQueueFullRejects(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, QueueDepth: 1})
	holdRuns(t, m, "test")

	j1, _, err := m.SubmitRun(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateRunning, 10*time.Second) // queue is empty again

	spec2 := testSpec()
	spec2.Prefetcher = "nextline"
	if _, _, err := m.SubmitRun(spec2); err != nil {
		t.Fatalf("second submit should queue: %v", err)
	}

	spec3 := testSpec()
	spec3.Prefetcher = "bingo"
	_, _, err = m.SubmitRun(spec3)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}
	if got := counterValue(m.Registry(), CounterQueueRejects); got != 1 {
		t.Errorf("%s = %d, want 1", CounterQueueRejects, got)
	}
	// The rejected spec is not registered under its content address.
	if _, err := m.Job(RunJobID(spec3)); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("rejected job is registered: err = %v", err)
	}
}

// TestShutdownDrains submits a job and shuts down: Shutdown must wait
// for it, and later submissions must see ErrDraining.
func TestShutdownDrains(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewManager(Options{DefaultScale: "test", Workers: 1, Registry: reg, Logf: t.Logf})
	j, _, err := m.SubmitRun(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st := j.State(); st != StateDone {
		t.Fatalf("drained job state = %q, want done (err %q)", st, j.View(false).Error)
	}
	if _, _, err := m.SubmitRun(testSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after shutdown err = %v, want ErrDraining", err)
	}
	if !m.Draining() {
		t.Error("Draining() = false after Shutdown")
	}
	// Idempotent.
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestShutdownDeadlineCancels shuts down with an expired context: the
// in-flight job must be cancelled rather than waited for.
func TestShutdownDeadlineCancels(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewManager(Options{DefaultScale: "test", Workers: 1, Registry: reg, Logf: t.Logf})
	j, _, err := m.SubmitRun(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning, 10*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: drain must cut over to cancellation
	if err := m.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown err = %v, want context.Canceled", err)
	}
	if st := j.State(); st != StateCanceled {
		t.Fatalf("job state = %q, want canceled", st)
	}
}

// TestExperimentJob runs a whole-table experiment job end to end.
// tableII is static (plans no simulations), so this exercises the
// experiment path without long runs; fig1 exercises prewarm + progress.
func TestExperimentJob(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	j, fresh, err := m.SubmitExperiment("tableII", RunSpec{Scale: "test"})
	if err != nil || !fresh {
		t.Fatalf("SubmitExperiment = (fresh=%v, %v)", fresh, err)
	}
	if j.ID != ExperimentJobID("test", "tableII") {
		t.Errorf("job ID = %q, want content address", j.ID)
	}
	<-j.Done()
	if st := j.State(); st != StateDone {
		t.Fatalf("state = %q, want done (err %q)", st, j.View(false).Error)
	}
	var res TableResult
	if err := json.Unmarshal(j.View(true).Result, &res); err != nil {
		t.Fatalf("payload: %v", err)
	}
	if res.Experiment != "tableII" || res.Table == nil || len(res.Table.Rows) == 0 {
		t.Errorf("table result = %+v, want populated tableII", res)
	}

	if _, _, err := m.SubmitExperiment("no-such-experiment", RunSpec{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestSubmitValidation rejects malformed specs at submission time.
func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	bad := []RunSpec{
		{Workload: "nope", Input: "urand", Scale: "test"},
		{Workload: "pagerank", Input: "nope", Scale: "test"},
		{Workload: "pagerank", Input: "urand", Prefetcher: "nope", Scale: "test"},
		{Workload: "pagerank", Input: "urand", Variant: "nope", Scale: "test"},
		{Workload: "pagerank", Input: "urand", Scale: "nope"},
	}
	for _, spec := range bad {
		if _, _, err := m.SubmitRun(spec); err == nil {
			t.Errorf("spec %+v accepted, want validation error", spec)
		}
	}
	if got := counterValue(m.Registry(), CounterJobsSubmitted); got != 0 {
		t.Errorf("%s = %d after rejected specs, want 0", CounterJobsSubmitted, got)
	}
}
