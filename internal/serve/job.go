// Package serve is the experiment-serving layer: a long-lived daemon
// front-end (cmd/rnrd) over the parallel evaluation engine in
// internal/bench. It turns one-shot CLI simulations into a job service:
//
//   - POST /v1/runs submits a {workload, input, prefetcher, variant,
//     scale} simulation and returns a content-addressed job ID derived
//     from the bench memoisation key, so duplicate submissions coalesce
//     onto one job and, underneath, one singleflight cache entry.
//   - GET /v1/runs/{id} reports status and (when done) the stamped
//     result JSON; /v1/runs/{id}/events streams progress over SSE.
//   - POST /v1/experiments/{id} runs a whole paper artefact (a bench
//     table) as a job.
//
// Robustness is the design center: the job queue is bounded (full →
// 429 + Retry-After), every job carries a context with an optional
// timeout, client disconnect cancels abandoned jobs all the way down
// into the simulator tick loop, and shutdown drains in-flight work.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"time"

	"rnrsim/internal/apps"
	"rnrsim/internal/bench"
	"rnrsim/internal/coherence"
	"rnrsim/internal/multicore"
	"rnrsim/internal/sim"
)

// JobState is the lifecycle of a job. Transitions:
//
//	queued → running → done
//	                 → failed
//	queued|running   → canceled
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job kinds.
const (
	KindRun        = "run"
	KindExperiment = "experiment"
)

// RunSpec is the client-visible description of one simulation.
type RunSpec struct {
	Workload   string `json:"workload"`
	Input      string `json:"input"`
	Prefetcher string `json:"prefetcher"`
	// Variant is a stable variant name (see bench.NamedVariant):
	// "" or "plain", "ideal", "ctxsw", "recordall", "llcdest",
	// "ctl-*", "winN".
	Variant string `json:"variant,omitempty"`
	// Scale is "test", "bench" or "large"; empty uses the daemon's
	// default.
	Scale string `json:"scale,omitempty"`
	// Jobs, when non-empty, makes the submission a multi-programmed
	// co-run: entry k names the program scheduled on core k as
	// "workload.input" (or "workload/input"). A co-run machine attaches
	// the coherence directory and a 2-bank shared LLC; Prefetcher applies
	// to every core's private L2. Workload/Input must be left empty and
	// only the plain variant is accepted. The list is capped at the
	// coherence directory's core limit.
	Jobs []string `json:"jobs,omitempty"`
	// CrossCore attaches the cooperative cross-core LLC prefetcher to a
	// co-run (rejected without Jobs).
	CrossCore bool `json:"crosscore,omitempty"`
	// Detach opts the job out of abandonment cancellation: it runs to
	// completion even if every watching client disconnects.
	Detach bool `json:"detach,omitempty"`
	// LeaseSeconds, when > 0, puts the job under a renewable lease: if
	// the lease is not renewed (POST /v1/runs/{id}/lease) within the
	// window, the job is cancelled. This is the worker-mode contract a
	// cluster coordinator dispatches under — a coordinator that dies
	// mid-dispatch stops renewing and the worker reclaims the slot
	// instead of simulating for a client that will never read the
	// result. The lease does not participate in the content address, so
	// leased and unleased submissions of the same spec coalesce (a
	// coalesced resubmission renews an existing lease).
	LeaseSeconds int `json:"lease_seconds,omitempty"`
}

// Normalize validates the spec and fills defaults; the manager and the
// cluster coordinator both run it before accepting a spec. It is
// deliberately strict: everything a job would panic or spin on later is
// rejected at submission time with a client error.
func (sp *RunSpec) Normalize(defaultScale string) error {
	if sp.Scale == "" {
		sp.Scale = defaultScale
	}
	if sp.LeaseSeconds < 0 {
		return fmt.Errorf("lease_seconds must be >= 0 (got %d)", sp.LeaseSeconds)
	}
	if _, ok := apps.ParseScale(sp.Scale); !ok {
		return fmt.Errorf("unknown scale %q (have %v)", sp.Scale, apps.ScaleNames)
	}
	if sp.Prefetcher == "" {
		sp.Prefetcher = string(sim.PFNone)
	}
	if !slices.Contains(sim.AllPrefetchers, sim.PrefetcherKind(sp.Prefetcher)) {
		return fmt.Errorf("unknown prefetcher %q (have %v)", sp.Prefetcher, sim.AllPrefetchers)
	}
	if len(sp.Jobs) > 0 {
		if sp.Workload != "" || sp.Input != "" {
			return fmt.Errorf("jobs and workload/input are mutually exclusive")
		}
		if n := len(sp.Jobs); n > coherence.MaxCores {
			return fmt.Errorf("co-run lists %d jobs; the coherence directory tracks at most %d cores",
				n, coherence.MaxCores)
		}
		for k, raw := range sp.Jobs {
			j, err := multicore.ParseJob(raw)
			if err != nil {
				return fmt.Errorf("job %d: %w", k, err)
			}
			if !slices.Contains(apps.Workloads, j.Workload) {
				return fmt.Errorf("job %d: unknown workload %q (have %v)", k, j.Workload, apps.Workloads)
			}
			if !slices.Contains(apps.InputsFor(j.Workload), j.Input) {
				return fmt.Errorf("job %d: unknown input %q for workload %q (have %v)",
					k, j.Input, j.Workload, apps.InputsFor(j.Workload))
			}
			sp.Jobs[k] = j.String() // canonical "workload.input" form for the key
		}
		if v, ok := bench.NamedVariant(sp.Variant); !ok || v.Tag != "" {
			return fmt.Errorf("co-runs accept only the plain variant (got %q)", sp.Variant)
		}
		return nil
	}
	if sp.CrossCore {
		return fmt.Errorf("crosscore requires a co-run job list")
	}
	if !slices.Contains(apps.Workloads, sp.Workload) {
		return fmt.Errorf("unknown workload %q (have %v)", sp.Workload, apps.Workloads)
	}
	if !slices.Contains(apps.InputsFor(sp.Workload), sp.Input) {
		return fmt.Errorf("unknown input %q for workload %q (have %v)",
			sp.Input, sp.Workload, apps.InputsFor(sp.Workload))
	}
	if _, ok := bench.NamedVariant(sp.Variant); !ok {
		return fmt.Errorf("unknown variant %q (have %v, or winN)", sp.Variant, bench.VariantNames())
	}
	return nil
}

// key returns the memoisation key the spec resolves to: the bench run
// key for plain runs, the bench co-run key (job list + prefetcher +
// cross-core flag) for multi-programmed submissions.
func (sp RunSpec) key() string {
	if len(sp.Jobs) > 0 {
		return bench.CoRunKey(sp.coRunJobs(), sim.PrefetcherKind(sp.Prefetcher), sp.CrossCore)
	}
	v, _ := bench.NamedVariant(sp.Variant)
	return bench.RunKey(sp.Workload, sp.Input, sim.PrefetcherKind(sp.Prefetcher), v.Tag)
}

// coRunJobs returns a normalized spec's co-run job list, one entry per
// core. Normalize has parsed every entry, so none fails here.
func (sp RunSpec) coRunJobs() []multicore.JobSpec {
	jobs := make([]multicore.JobSpec, len(sp.Jobs))
	for k, raw := range sp.Jobs {
		jobs[k], _ = multicore.ParseJob(raw)
	}
	return jobs
}

// RunJobID derives the content-addressed job ID of a run spec: a hash
// over the scale plus the bench memoisation key. Two submissions that
// would simulate the same thing therefore share one job (and one
// singleflight cache entry); detach does not participate, so a watcher
// of a detached job coalesces too.
func RunJobID(spec RunSpec) string {
	return jobID("r", spec.Scale+"|"+spec.key())
}

// ExperimentJobID derives the content-addressed job ID of a whole-table
// experiment job.
func ExperimentJobID(scale, experiment string) string {
	return jobID("x", scale+"|exp|"+experiment)
}

func jobID(prefix, key string) string {
	sum := sha256.Sum256([]byte("rnrd.v1|" + key))
	return prefix + hex.EncodeToString(sum[:])[:24]
}

// Job is one unit of serving work: a single simulation (KindRun) or a
// whole paper artefact (KindExperiment). Jobs are identified by a
// content-addressed ID, so the jobs map doubles as the daemon's
// content-addressed result cache.
type Job struct {
	ID         string
	Kind       string
	Spec       RunSpec // for KindRun (and Scale/Detach for experiments)
	Experiment string  // for KindExperiment

	ctx    context.Context
	cancel context.CancelFunc
	log    *EventLog
	done   chan struct{}

	mu          sync.Mutex
	state       JobState
	errMsg      string
	result      json.RawMessage
	created     time.Time
	started     time.Time
	finished    time.Time
	watchers    int
	lease       *time.Timer   // nil when the job is not leased
	leaseTTL    time.Duration // renewal window while leased
	onAbandoned func(*Job)    // set by the manager; called outside mu
}

func newJob(base context.Context, id, kind string, spec RunSpec, experiment string, timeout time.Duration) *Job {
	ctx, cancel := context.WithCancel(base)
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(base, timeout)
	}
	j := &Job{
		ID:         id,
		Kind:       kind,
		Spec:       spec,
		Experiment: experiment,
		ctx:        ctx,
		cancel:     cancel,
		log:        NewEventLog(),
		done:       make(chan struct{}),
		state:      StateQueued,
		created:    nowFn(),
	}
	if spec.LeaseSeconds > 0 {
		j.leaseTTL = time.Duration(spec.LeaseSeconds) * time.Second
		j.lease = time.AfterFunc(j.leaseTTL, func() {
			j.Cancel("lease expired")
		})
	}
	j.log.Publish(Event{Type: EventState, State: StateQueued})
	return j
}

// RenewLease resets a leased job's expiry window. It reports whether
// the job holds a live lease (an unleased or already-terminal job
// returns false). The renewed TTL is the one the job was created with.
func (j *Job) RenewLease() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.lease == nil || j.state.Terminal() {
		return false
	}
	j.lease.Reset(j.leaseTTL)
	return true
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// setRunning flips queued → running (no-op if the job is already
// terminal, e.g. cancelled while queued).
func (j *Job) setRunning() bool {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return false
	}
	j.state = StateRunning
	j.started = nowFn()
	j.mu.Unlock()
	j.log.Publish(Event{Type: EventState, State: StateRunning})
	return true
}

// finish moves the job to a terminal state, publishes the final event
// and releases the job's context resources. Idempotent: only the first
// call wins.
func (j *Job) finish(state JobState, result json.RawMessage, errMsg string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = result
	j.errMsg = errMsg
	j.finished = nowFn()
	if j.lease != nil {
		j.lease.Stop()
	}
	j.mu.Unlock()
	j.log.Publish(Event{Type: EventState, State: state, Error: errMsg})
	j.log.Close()
	j.cancel() // release the timeout timer / subtree
	close(j.done)
}

// Cancel requests cancellation: a queued job is finished immediately, a
// running job's context is cancelled (the simulator notices within one
// tick batch and the worker records the terminal state).
func (j *Job) Cancel(reason string) {
	j.mu.Lock()
	queued := j.state == StateQueued
	j.mu.Unlock()
	j.cancel()
	if queued {
		j.finish(StateCanceled, nil, reason)
	}
}

// addWatcher registers an interested client (an SSE stream or a
// blocking status poll).
func (j *Job) addWatcher() {
	j.mu.Lock()
	j.watchers++
	j.mu.Unlock()
}

// removeWatcher drops a client. When the last watcher of a
// non-detached, still-active job disconnects, the job is abandoned:
// its context is cancelled, which unwinds through bench.Suite into the
// simulator tick loop.
func (j *Job) removeWatcher() {
	j.mu.Lock()
	j.watchers--
	abandoned := j.watchers == 0 && !j.Spec.Detach && !j.state.Terminal()
	hook := j.onAbandoned
	j.mu.Unlock()
	if abandoned {
		if hook != nil {
			hook(j)
		}
		j.Cancel("abandoned: all watching clients disconnected")
	}
}

// JobView is the status/result JSON of a job, stamped with the export
// envelope.
type JobView struct {
	SchemaVersion string `json:"schema_version"`
	GeneratedAt   string `json:"generated_at"`

	ID         string   `json:"id"`
	Kind       string   `json:"kind"`
	State      JobState `json:"state"`
	Key        string   `json:"key,omitempty"` // bench memoisation key (runs)
	Spec       *RunSpec `json:"spec,omitempty"`
	Experiment string   `json:"experiment,omitempty"`
	Scale      string   `json:"scale,omitempty"`
	Error      string   `json:"error,omitempty"`

	Created  string `json:"created"`
	Started  string `json:"started,omitempty"`
	Finished string `json:"finished,omitempty"`
	Watchers int    `json:"watchers"`

	Result json.RawMessage `json:"result,omitempty"`
}

// View snapshots the job for serialisation. withResult=false omits the
// (potentially large) result payload, for listings.
func (j *Job) View(withResult bool) JobView {
	schema, generated := sim.Stamp()
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		SchemaVersion: schema,
		GeneratedAt:   generated,
		ID:            j.ID,
		Kind:          j.Kind,
		State:         j.state,
		Error:         j.errMsg,
		Created:       j.created.UTC().Format(time.RFC3339Nano),
		Watchers:      j.watchers,
	}
	switch j.Kind {
	case KindRun:
		spec := j.Spec
		v.Spec = &spec
		v.Key = spec.key()
		v.Scale = spec.Scale
	case KindExperiment:
		v.Experiment = j.Experiment
		v.Scale = j.Spec.Scale
	}
	if !j.started.IsZero() {
		v.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if withResult {
		v.Result = j.result
	}
	return v
}

// nowFn is stubbed in tests.
var nowFn = time.Now
