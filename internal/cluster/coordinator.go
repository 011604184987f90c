// Package cluster is the distributed rnrd layer: a coordinator that
// fans simulation jobs out to N worker rnrd daemons by consistent
// hashing on the content-addressed job key, with the robustness kit a
// lossy fleet needs — worker registration with heartbeat-driven health
// states (alive → suspect → dead), per-dispatch timeouts with capped
// exponential backoff and jitter, retry-with-exclusion on worker loss,
// graceful 503 degradation when the ring thins, and sampled duplicate
// dispatch that cross-checks the PR 4 state hash between two workers.
//
// Consistent hashing on serve.RunJobID means the same job always lands
// on the same worker while membership holds, so each worker's
// content-addressed result cache shards naturally: resubmissions and
// sweep overlaps hit warm caches instead of re-simulating. The state
// hash makes cross-worker correctness *checkable*: the same job
// dispatched to two different workers must produce bit-identical
// architectural state, so a sampled second dispatch turns silent
// corruption (bad RAM, miscompiled worker, version skew) into a loud
// dispatch failure and a cluster.hash_mismatches increment.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"rnrsim/internal/serve"
	"rnrsim/internal/telemetry"
)

// Errors the HTTP layer maps onto status codes.
var (
	// ErrNoWorkers is returned when the ring has no live candidate for a
	// dispatch (empty, all dead, or all excluded by earlier failures in
	// the same dispatch). The HTTP layer answers 503 + Retry-After
	// instead of hanging.
	ErrNoWorkers = errors.New("cluster: no live workers")
	// ErrHashMismatch is returned when a sampled duplicate dispatch
	// produced a different state hash on the second worker: the two
	// machines disagree about the architecture of the same simulation,
	// and the result cannot be trusted.
	ErrHashMismatch = errors.New("cluster: cross-worker state-hash mismatch")
	// ErrJobFailed wraps a deterministic job failure reported by a
	// worker (the simulation itself failed). It is not retried: the
	// same spec fails the same way everywhere.
	ErrJobFailed = errors.New("cluster: job failed on worker")
	// ErrUnknownWorker is returned for operations on unregistered IDs.
	ErrUnknownWorker = errors.New("cluster: unknown worker")
	// ErrUnknownSweep is returned for lookups of sweep IDs never started.
	ErrUnknownSweep = errors.New("cluster: unknown sweep")
)

// Telemetry instrument names the coordinator maintains. The chaos
// acceptance tests assert every injected fault is visible here.
const (
	CounterDispatches      = "cluster.dispatches"
	CounterDispatchRetries = "cluster.dispatch_retries"
	CounterExclusions      = "cluster.exclusions"
	CounterDispatchFailed  = "cluster.dispatch_failed"
	CounterHashChecks      = "cluster.hash_checks"
	CounterHashMismatches  = "cluster.hash_mismatches"
	CounterNoWorkerRejects = "cluster.no_worker_rejects"
	CounterHeartbeatMisses = "cluster.heartbeat_misses"
	CounterWorkersJoined   = "cluster.workers_joined"
	CounterWorkerDeaths    = "cluster.worker_deaths"
	CounterSweeps          = "cluster.sweeps"
	CounterSweepJobsDone   = "cluster.sweep_jobs_done"
	CounterSweepJobsFailed = "cluster.sweep_jobs_failed"
	GaugeWorkersAlive      = "cluster.workers_alive"
	GaugeWorkersSuspect    = "cluster.workers_suspect"
	GaugeWorkersDead       = "cluster.workers_dead"
	GaugeSweepInflight     = "cluster.sweep_jobs_inflight"
)

// Health is a worker's coordinator-side health state.
type Health int

const (
	// HealthAlive: heartbeats are answered; full dispatch candidate.
	HealthAlive Health = iota
	// HealthSuspect: missed at least suspectAfter consecutive
	// heartbeats (or failed a dispatch). Still on the ring — a single
	// dropped probe must not reshard the cluster — but one more miss
	// streak away from removal.
	HealthSuspect
	// HealthDead: missed deadAfter consecutive heartbeats. Off the
	// ring; its keys have remapped to the survivors. A later
	// successful heartbeat resurrects it.
	HealthDead
)

// String names the state for listings and logs.
func (h Health) String() string {
	switch h {
	case HealthAlive:
		return "alive"
	case HealthSuspect:
		return "suspect"
	case HealthDead:
		return "dead"
	}
	return fmt.Sprintf("Health(%d)", int(h))
}

// Config tunes a Coordinator. The zero value is usable.
type Config struct {
	// DefaultScale fills submissions that omit one. Default "bench".
	DefaultScale string
	// HeartbeatInterval is the health-probe period. Default 1s.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout caps one probe. Default HeartbeatInterval.
	HeartbeatTimeout time.Duration
	// DispatchTimeout caps one dispatch attempt (submit + simulate +
	// result, over one blocking request). Default 120s.
	DispatchTimeout time.Duration
	// ReplicateCheck is the probability ([0,1]) that a dispatch is
	// duplicated to a second worker and the two state hashes compared.
	// 0 disables; 1 checks everything. Sampling is deterministic in
	// the job key.
	ReplicateCheck float64
	// Client performs worker HTTP calls. Default http.DefaultTransport
	// behind a plain client; the chaos harness swaps transports here.
	Client *http.Client
	// Registry receives the cluster instruments. Default telemetry.Default.
	Registry *telemetry.Registry
	// Logf, if set, receives operational log lines.
	Logf func(format string, args ...any)
}

// The coordinator's fixed retry and health policy.
const (
	// suspectAfter is the consecutive-miss count that turns a worker
	// suspect.
	suspectAfter = 1
	// deadAfter is the consecutive-miss count that declares a worker
	// dead and removes it from the ring.
	deadAfter = 3
	// maxAttempts bounds dispatch attempts per job across distinct
	// workers.
	maxAttempts = 3
	// backoffBase and backoffCap shape the capped exponential retry
	// backoff (full jitter).
	backoffBase = 50 * time.Millisecond
	backoffCap  = 2 * time.Second
	// scheduleSeed drives backoff jitter and replicate-check sampling,
	// so a run replays identical schedules.
	scheduleSeed = 1
	// sweepParallelism is the number of concurrent dispatches a sweep
	// fans out.
	sweepParallelism = 4
	// retryAfter is the base 503 backpressure hint (jittered ±25% like
	// the serve layer's 429 hint).
	retryAfter = 2 * time.Second
)

func (c *Config) fillDefaults() {
	if c.DefaultScale == "" {
		c.DefaultScale = "bench"
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = c.HeartbeatInterval
	}
	if c.DispatchTimeout <= 0 {
		c.DispatchTimeout = 120 * time.Second
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// workerRec is the coordinator's view of one registered worker.
type workerRec struct {
	id, url  string
	health   Health
	misses   int // consecutive heartbeat/dispatch failures
	lastSeen time.Time

	dispatched, failures uint64
}

// WorkerInfo is a worker's externally visible state.
type WorkerInfo struct {
	ID         string `json:"id"`
	URL        string `json:"url"`
	Health     string `json:"health"`
	Misses     int    `json:"misses"`
	LastSeen   string `json:"last_seen,omitempty"`
	Dispatched uint64 `json:"dispatched"`
	Failures   uint64 `json:"failures"`
}

// Coordinator owns the worker registry, the consistent-hash ring, the
// heartbeat loop and the sweep table. Close must eventually be called.
type Coordinator struct {
	cfg Config

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu       sync.Mutex
	ring     *ring
	workers  map[string]*workerRec
	sweeps   map[string]*Sweep
	sweepSeq int

	bo *backoff

	cDispatches, cRetries, cExclusions, cDispatchFailed *telemetry.Counter
	cHashChecks, cHashMismatches, cNoWorker             *telemetry.Counter
	cHeartbeatMisses, cJoined, cDeaths                  *telemetry.Counter
	cSweeps, cSweepDone, cSweepFailed                   *telemetry.Counter
	gInflight                                           *telemetry.Gauge
}

// NewCoordinator builds and starts a coordinator: its heartbeat loop
// is live on return.
func NewCoordinator(cfg Config) *Coordinator {
	cfg.fillDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	reg := cfg.Registry
	c := &Coordinator{
		cfg:     cfg,
		baseCtx: ctx,
		stop:    cancel,
		ring:    newRing(),
		workers: make(map[string]*workerRec),
		sweeps:  make(map[string]*Sweep),
		bo:      newBackoff(backoffBase, backoffCap, scheduleSeed),

		cDispatches:      reg.Counter(CounterDispatches),
		cRetries:         reg.Counter(CounterDispatchRetries),
		cExclusions:      reg.Counter(CounterExclusions),
		cDispatchFailed:  reg.Counter(CounterDispatchFailed),
		cHashChecks:      reg.Counter(CounterHashChecks),
		cHashMismatches:  reg.Counter(CounterHashMismatches),
		cNoWorker:        reg.Counter(CounterNoWorkerRejects),
		cHeartbeatMisses: reg.Counter(CounterHeartbeatMisses),
		cJoined:          reg.Counter(CounterWorkersJoined),
		cDeaths:          reg.Counter(CounterWorkerDeaths),
		cSweeps:          reg.Counter(CounterSweeps),
		cSweepDone:       reg.Counter(CounterSweepJobsDone),
		cSweepFailed:     reg.Counter(CounterSweepJobsFailed),
		gInflight:        reg.Gauge(GaugeSweepInflight),
	}
	reg.Probe(GaugeWorkersAlive, func(uint64) float64 { return float64(c.countHealth(HealthAlive)) })
	reg.Probe(GaugeWorkersSuspect, func(uint64) float64 { return float64(c.countHealth(HealthSuspect)) })
	reg.Probe(GaugeWorkersDead, func(uint64) float64 { return float64(c.countHealth(HealthDead)) })
	c.wg.Add(1)
	go c.heartbeatLoop()
	return c
}

// Close stops the heartbeat loop and any in-flight sweep dispatches.
func (c *Coordinator) Close() {
	c.stop()
	c.wg.Wait()
}

// Registry returns the telemetry registry the coordinator reports into.
func (c *Coordinator) Registry() *telemetry.Registry { return c.cfg.Registry }

func (c *Coordinator) countHealth(h Health) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		if w.health == h {
			n++
		}
	}
	return n
}

// AddWorker registers (or re-registers) a worker and puts it on the
// ring immediately — the next heartbeat confirms or demotes it.
// Registration is idempotent: re-joining with the same ID refreshes
// the URL and resurrects a dead record.
func (c *Coordinator) AddWorker(id, rawURL string) error {
	if id == "" {
		return fmt.Errorf("cluster: empty worker id")
	}
	u, err := url.Parse(rawURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("cluster: worker %q url %q is not absolute", id, rawURL)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		w = &workerRec{id: id}
		c.workers[id] = w
		c.cJoined.Inc()
	}
	w.url = rawURL
	w.health = HealthAlive
	w.misses = 0
	w.lastSeen = time.Now()
	c.ring.add(id)
	c.cfg.Logf("cluster: worker %s joined at %s (%d on ring)", id, rawURL, c.ring.size())
	return nil
}

// RemoveWorker deregisters a worker (graceful leave): off the ring,
// out of the registry.
func (c *Coordinator) RemoveWorker(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.workers[id]; !ok {
		return ErrUnknownWorker
	}
	delete(c.workers, id)
	c.ring.remove(id)
	c.cfg.Logf("cluster: worker %s left (%d on ring)", id, c.ring.size())
	return nil
}

// Workers snapshots the registry, sorted by ID.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, w := range c.workers {
		info := WorkerInfo{
			ID: w.id, URL: w.url, Health: w.health.String(), Misses: w.misses,
			Dispatched: w.dispatched, Failures: w.failures,
		}
		if !w.lastSeen.IsZero() {
			info.LastSeen = w.lastSeen.UTC().Format(time.RFC3339Nano)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// LiveWorkers counts ring members (alive + suspect).
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.size()
}

// heartbeatLoop probes every registered worker each interval and
// drives the alive → suspect → dead state machine.
func (c *Coordinator) heartbeatLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-t.C:
			c.probeAll()
		}
	}
}

func (c *Coordinator) probeAll() {
	c.mu.Lock()
	targets := make([]*workerRec, 0, len(c.workers))
	for _, w := range c.workers {
		targets = append(targets, w)
	}
	c.mu.Unlock()
	var wg sync.WaitGroup
	for _, w := range targets {
		wg.Add(1)
		go func(w *workerRec) {
			defer wg.Done()
			ok := c.probe(w.url)
			c.noteHeartbeat(w.id, ok)
		}(w)
	}
	wg.Wait()
}

// probe asks one worker for its heartbeat status. A draining worker is
// treated as leaving: it stops getting new jobs.
func (c *Coordinator) probe(base string) bool {
	ctx, cancel := context.WithTimeout(c.baseCtx, c.cfg.HeartbeatTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/worker/status", nil)
	if err != nil {
		return false
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return false
	}
	var st serve.WorkerStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return false
	}
	return !st.Draining
}

// noteHeartbeat records one probe outcome and applies the state
// machine.
func (c *Coordinator) noteHeartbeat(id string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, exists := c.workers[id]
	if !exists {
		return
	}
	if ok {
		if w.health == HealthDead {
			c.cfg.Logf("cluster: worker %s resurrected", id)
			c.ring.add(id)
		}
		w.health = HealthAlive
		w.misses = 0
		w.lastSeen = time.Now()
		return
	}
	c.cHeartbeatMisses.Inc()
	c.missLocked(w)
}

// noteDispatchFailure counts a failed dispatch as a health miss too: a
// worker that cannot serve jobs is suspect even if its status endpoint
// still answers.
func (c *Coordinator) noteDispatchFailure(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[id]; ok {
		w.failures++
		c.missLocked(w)
	}
}

func (c *Coordinator) missLocked(w *workerRec) {
	if w.health == HealthDead {
		return
	}
	w.misses++
	switch {
	case w.misses >= deadAfter:
		if w.health != HealthDead {
			w.health = HealthDead
			c.ring.remove(w.id)
			c.cDeaths.Inc()
			c.cfg.Logf("cluster: worker %s dead after %d misses (%d on ring)",
				w.id, w.misses, c.ring.size())
		}
	case w.misses >= suspectAfter:
		if w.health == HealthAlive {
			w.health = HealthSuspect
			c.cfg.Logf("cluster: worker %s suspect after %d misses", w.id, w.misses)
		}
	}
}

// pickWorker maps a job key to its owner, skipping the excluded set.
func (c *Coordinator) pickWorker(key string, excluded map[string]bool) (id, baseURL string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok = c.ring.pick(key, excluded)
	if !ok {
		return "", "", false
	}
	return id, c.workers[id].url, true
}

// DispatchResult is one successfully served job.
type DispatchResult struct {
	WorkerID   string        `json:"worker"`
	Attempts   int           `json:"attempts"`
	Replicated bool          `json:"replicated"` // sampled duplicate dispatch verified the hash
	StateHash  string        `json:"state_hash"`
	View       serve.JobView `json:"view"`
}

// workerError is a retryable worker-level dispatch failure.
type workerError struct {
	worker string
	err    error
}

func (e *workerError) Error() string { return fmt.Sprintf("worker %s: %v", e.worker, e.err) }
func (e *workerError) Unwrap() error { return e.err }

// Dispatch routes one run spec to its ring owner and returns the
// worker's completed job view. Worker-level failures (connection
// death, timeout, 5xx, overload) exclude the worker from the retry's
// candidate set and back off with jitter before trying the next owner;
// deterministic job failures are returned immediately (they would fail
// identically everywhere). With every candidate excluded or the ring
// empty, ErrNoWorkers degrades the request to a 503 upstream.
func (c *Coordinator) Dispatch(ctx context.Context, spec serve.RunSpec) (*DispatchResult, error) {
	if err := spec.Normalize(c.cfg.DefaultScale); err != nil {
		return nil, err
	}
	// The dispatch connection is the lease: wait=1 makes the
	// coordinator a watcher, so a coordinator that dies mid-dispatch
	// abandons the job; the lease below is the belt-and-braces cap for
	// the window where the connection survives but the coordinator is
	// wedged.
	spec.Detach = false
	if spec.LeaseSeconds == 0 {
		spec.LeaseSeconds = int(c.cfg.DispatchTimeout/time.Second) + 30
	}
	key := serve.RunJobID(spec)
	excluded := make(map[string]bool)
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			c.cRetries.Inc()
			if err := c.bo.sleep(ctx, attempt-2); err != nil {
				return nil, err
			}
		}
		id, base, ok := c.pickWorker(key, excluded)
		if !ok {
			c.cNoWorker.Inc()
			if lastErr != nil {
				return nil, fmt.Errorf("%w (after %v)", ErrNoWorkers, lastErr)
			}
			return nil, ErrNoWorkers
		}
		view, err := c.postRun(ctx, base, spec)
		if err == nil {
			c.cDispatches.Inc()
			c.mu.Lock()
			if w, okw := c.workers[id]; okw {
				w.dispatched++
			}
			c.mu.Unlock()
			res := &DispatchResult{
				WorkerID:  id,
				Attempts:  attempt,
				StateHash: extractStateHash(view.Result),
				View:      view,
			}
			if err := c.replicateCheck(ctx, key, spec, res, excluded); err != nil {
				return nil, err
			}
			return res, nil
		}
		var wer *workerError
		if !errors.As(err, &wer) {
			// Deterministic job/spec failure: retrying elsewhere would
			// burn the fleet re-proving it.
			c.cDispatchFailed.Inc()
			return nil, err
		}
		lastErr = err
		excluded[id] = true
		c.cExclusions.Inc()
		c.noteDispatchFailure(id)
		c.cfg.Logf("cluster: dispatch %s attempt %d lost worker %s: %v", key, attempt, id, err)
	}
	c.cDispatchFailed.Inc()
	return nil, fmt.Errorf("cluster: dispatch failed after %d attempts: %w", maxAttempts, lastErr)
}

// replicateCheck duplicates a sampled dispatch onto a second worker
// and compares state hashes. A cluster of one (or a fully excluded
// ring) skips silently — there is no second machine to disagree with.
func (c *Coordinator) replicateCheck(ctx context.Context, key string, spec serve.RunSpec, primary *DispatchResult, excluded map[string]bool) error {
	if !c.shouldReplicate(key) {
		return nil
	}
	ex := map[string]bool{primary.WorkerID: true}
	for id := range excluded {
		ex[id] = true
	}
	id, base, ok := c.pickWorker(key, ex)
	if !ok {
		return nil
	}
	view, err := c.postRun(ctx, base, spec)
	if err != nil {
		// The replica worker failing is a health event, not a
		// correctness verdict; the primary result stands.
		var wer *workerError
		if errors.As(err, &wer) {
			c.noteDispatchFailure(id)
		}
		c.cfg.Logf("cluster: replicate-check of %s on %s failed: %v", key, id, err)
		return nil
	}
	replicaHash := extractStateHash(view.Result)
	c.cHashChecks.Inc()
	if replicaHash != primary.StateHash {
		c.cHashMismatches.Inc()
		c.cfg.Logf("cluster: HASH MISMATCH %s: %s=%s vs %s=%s",
			key, primary.WorkerID, primary.StateHash, id, replicaHash)
		return fmt.Errorf("%w: %s reports %s, %s reports %s (job %s)",
			ErrHashMismatch, primary.WorkerID, primary.StateHash, id, replicaHash, key)
	}
	primary.Replicated = true
	return nil
}

// shouldReplicate samples deterministically in (seed, key): the same
// sweep replays the same checks.
func (c *Coordinator) shouldReplicate(key string) bool {
	p := c.cfg.ReplicateCheck
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	h := ringHash(fmt.Sprintf("replicate|%d|%s", scheduleSeed, key))
	return float64(h%(1<<20))/float64(1<<20) < p
}

// postRun submits spec to one worker and blocks (wait=1) until the
// job is terminal or the attempt times out. Worker-level failures come
// back as *workerError (retryable); everything else is terminal.
func (c *Coordinator) postRun(ctx context.Context, base string, spec serve.RunSpec) (serve.JobView, error) {
	var view serve.JobView
	body, err := json.Marshal(spec)
	if err != nil {
		return view, err
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.DispatchTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", base+"/v1/runs?wait=1", bytes.NewReader(body))
	if err != nil {
		return view, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		return view, &workerError{worker: base, err: err}
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return view, &workerError{worker: base, err: err}
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		// fall through to decode
	case resp.StatusCode == http.StatusBadRequest:
		return view, fmt.Errorf("%w: %s", ErrJobFailed, errorMessage(payload))
	default:
		// 429 (queue full), 503 (draining), 5xx, anything else: the
		// worker cannot take the job now — retry on another shard.
		return view, &workerError{worker: base,
			err: fmt.Errorf("status %d: %s", resp.StatusCode, errorMessage(payload))}
	}
	if err := json.Unmarshal(payload, &view); err != nil {
		return view, &workerError{worker: base, err: fmt.Errorf("bad job view: %v", err)}
	}
	switch view.State {
	case serve.StateDone:
		return view, nil
	case serve.StateFailed:
		return view, fmt.Errorf("%w: %s", ErrJobFailed, view.Error)
	default:
		// Canceled under us (lease lapse, worker drain): retryable.
		return view, &workerError{worker: base,
			err: fmt.Errorf("job ended %s: %s", view.State, view.Error)}
	}
}

// errorMessage extracts the serve error envelope's message, falling
// back to a truncated raw body.
func errorMessage(payload []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(payload, &e) == nil && e.Error != "" {
		return e.Error
	}
	if len(payload) > 200 {
		payload = payload[:200]
	}
	return string(payload)
}

// extractStateHash pulls the architectural state hash out of a
// completed run payload (serve.RunResult embeds sim.ResultJSON).
func extractStateHash(result json.RawMessage) string {
	var r struct {
		StateHash string `json:"state_hash"`
	}
	if json.Unmarshal(result, &r) != nil {
		return ""
	}
	return r.StateHash
}

// RetryAfterJittered is the 503 backpressure hint: base ±25%, so
// rejected clients spread their retries (same contract as the serve
// layer's 429 hint).
func (c *Coordinator) RetryAfterJittered() time.Duration {
	return serve.JitterDuration(retryAfter, serve.RetryAfterJitterFrac)
}
