package cluster

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"rnrsim/internal/multicore"
	"rnrsim/internal/serve"
	"rnrsim/internal/sim"
)

// SweepSpec is a parameter grid: the cross product of workloads ×
// prefetchers × variants × scales, expanded server-side into one
// dispatch per cell. This is the cluster's reason to exist — a full
// prefetcher comparison is embarrassingly parallel, and the
// consistent-hash routing means a re-submitted sweep re-hits each
// worker's warm result cache.
type SweepSpec struct {
	// Workloads lists programs as "workload.input" (or
	// "workload/input") names.
	Workloads []string `json:"workloads"`
	// Prefetchers lists prefetcher kinds; empty defaults to ["none"].
	Prefetchers []string `json:"prefetchers,omitempty"`
	// Variants lists config variants (see bench.NamedVariant); empty
	// defaults to the plain variant.
	Variants []string `json:"variants,omitempty"`
	// Scales lists run scales; empty defaults to the coordinator's
	// DefaultScale.
	Scales []string `json:"scales,omitempty"`
}

// maxSweepCells caps a sweep's raw grid: the product of its four list
// lengths, before de-duplication. The fixed wire names span 3,744
// distinct cells (12 workload inputs × 13 prefetchers × 8 variants × 3
// scales), so no de-duplicated grid over them is refused, and the cap
// leaves room for window-size variants (winN) on top. Without a cap, a
// 1 MiB body that repeats one name in every list encodes over 10^18
// cells, each normalised before dedup could drop it.
const maxSweepCells = 1 << 16

// expand produces the grid's run specs in deterministic nested-loop
// order (workload outermost, scale innermost), validating every cell.
// A grid over maxSweepCells is refused before any cell is normalised.
func (sp SweepSpec) expand(defaultScale string) ([]serve.RunSpec, error) {
	if len(sp.Workloads) == 0 {
		return nil, fmt.Errorf("sweep lists no workloads")
	}
	prefetchers := sp.Prefetchers
	if len(prefetchers) == 0 {
		prefetchers = []string{"none"}
	}
	variants := sp.Variants
	if len(variants) == 0 {
		variants = []string{""}
	}
	scales := sp.Scales
	if len(scales) == 0 {
		scales = []string{defaultScale}
	}
	// Multiply one list at a time, checking before each step, so the
	// running product never exceeds the cap and cannot overflow.
	cells := 1
	for _, n := range []int{len(sp.Workloads), len(prefetchers), len(variants), len(scales)} {
		if cells > maxSweepCells/n {
			return nil, fmt.Errorf("sweep grid of %d workloads × %d prefetchers × %d variants × %d scales exceeds %d cells",
				len(sp.Workloads), len(prefetchers), len(variants), len(scales), maxSweepCells)
		}
		cells *= n
	}
	var specs []serve.RunSpec
	seen := make(map[string]bool)
	for _, wl := range sp.Workloads {
		job, err := multicore.ParseJob(wl)
		if err != nil {
			return nil, fmt.Errorf("workload %q: %w", wl, err)
		}
		for _, pf := range prefetchers {
			for _, v := range variants {
				for _, sc := range scales {
					spec := serve.RunSpec{
						Workload:   job.Workload,
						Input:      job.Input,
						Prefetcher: pf,
						Variant:    v,
						Scale:      sc,
					}
					if err := spec.Normalize(defaultScale); err != nil {
						return nil, fmt.Errorf("grid cell %s/%s/%s/%s: %w", wl, pf, v, sc, err)
					}
					// Variant aliases ("" vs "plain") can collide on
					// the content address; keep the first.
					if id := serve.RunJobID(spec); !seen[id] {
						seen[id] = true
						specs = append(specs, spec)
					}
				}
			}
		}
	}
	return specs, nil
}

// Sweep states.
const (
	SweepRunning = "running"
	SweepDone    = "done" // terminal; individual cells may still have failed
)

// SweepJob is one grid cell's progress.
type SweepJob struct {
	Key        string        `json:"key"` // content-addressed run job ID
	Spec       serve.RunSpec `json:"spec"`
	State      string        `json:"state"` // pending | running | done | failed
	Worker     string        `json:"worker,omitempty"`
	Attempts   int           `json:"attempts,omitempty"`
	Replicated bool          `json:"replicated,omitempty"`
	StateHash  string        `json:"state_hash,omitempty"`
	Error      string        `json:"error,omitempty"`
}

// SweepView is the status JSON of a sweep, stamped with the export
// envelope. Jobs are sorted by key so the view (and the final export)
// is byte-stable across dispatch interleavings — the chaos
// differential depends on this.
type SweepView struct {
	SchemaVersion string `json:"schema_version"`
	GeneratedAt   string `json:"generated_at"`

	ID     string     `json:"id"`
	State  string     `json:"state"`
	Total  int        `json:"total"`
	Done   int        `json:"done"`
	Failed int        `json:"failed"`
	Spec   SweepSpec  `json:"spec"`
	Jobs   []SweepJob `json:"jobs"`
}

// Sweep is one in-flight (or completed) grid execution.
type Sweep struct {
	ID  string
	seq int
	log *serve.EventLog

	mu     sync.Mutex
	spec   SweepSpec
	state  string
	jobs   []SweepJob // dispatch order; views sort a copy
	done   int
	failed int
}

// sweepProgress is the Data payload on sweep_job / sweep_done events.
type sweepProgress struct {
	SweepID string    `json:"sweep_id"`
	Total   int       `json:"total"`
	Done    int       `json:"done"`
	Failed  int       `json:"failed"`
	Job     *SweepJob `json:"job,omitempty"`
}

// View snapshots the sweep. withJobs=false omits the per-cell table,
// for listings.
func (s *Sweep) View(withJobs bool) SweepView {
	schema, generated := sim.Stamp()
	s.mu.Lock()
	defer s.mu.Unlock()
	v := SweepView{
		SchemaVersion: schema,
		GeneratedAt:   generated,
		ID:            s.ID,
		State:         s.state,
		Total:         len(s.jobs),
		Done:          s.done,
		Failed:        s.failed,
		Spec:          s.spec,
	}
	if withJobs {
		v.Jobs = append([]SweepJob(nil), s.jobs...)
		sort.Slice(v.Jobs, func(i, j int) bool { return v.Jobs[i].Key < v.Jobs[j].Key })
	}
	return v
}

// publish emits one event carrying the sweep's aggregate progress
// (and, for sweep_job, the cell that just changed).
func (s *Sweep) publish(typ string, job *SweepJob) {
	s.mu.Lock()
	p := sweepProgress{SweepID: s.ID, Total: len(s.jobs), Done: s.done, Failed: s.failed}
	if job != nil {
		jc := *job
		p.Job = &jc
	}
	s.mu.Unlock()
	data, _ := json.Marshal(p)
	s.log.Publish(serve.Event{Type: typ, Data: data})
}

// StartSweep expands the grid, registers the sweep and launches its
// dispatch pool (sweepParallelism concurrent dispatches on the
// coordinator's base context — a sweep outlives the submitting
// request). The per-cell progress and the aggregate counters stream
// over one SSE channel (GET /v1/sweeps/{id}/events).
func (c *Coordinator) StartSweep(spec SweepSpec) (*Sweep, error) {
	specs, err := spec.expand(c.cfg.DefaultScale)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.sweepSeq++
	s := &Sweep{
		ID:    fmt.Sprintf("sweep-%d", c.sweepSeq),
		seq:   c.sweepSeq,
		log:   serve.NewEventLog(),
		spec:  spec,
		state: SweepRunning,
		jobs:  make([]SweepJob, len(specs)),
	}
	for i, rs := range specs {
		s.jobs[i] = SweepJob{Key: serve.RunJobID(rs), Spec: rs, State: "pending"}
	}
	c.sweeps[s.ID] = s
	c.mu.Unlock()
	c.cSweeps.Inc()
	c.cfg.Logf("cluster: %s started: %d jobs, parallelism %d", s.ID, len(specs), sweepParallelism)

	c.wg.Add(1)
	go c.runSweep(s)
	return s, nil
}

// runSweep drains the sweep's cells through a bounded dispatch pool.
func (c *Coordinator) runSweep(s *Sweep) {
	defer c.wg.Done()
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < sweepParallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				c.runSweepJob(s, i)
			}
		}()
	}
	for i := range s.jobs {
		select {
		case idx <- i:
		case <-c.baseCtx.Done():
			// Coordinator shutting down: stop feeding, drain workers.
			close(idx)
			wg.Wait()
			return
		}
	}
	close(idx)
	wg.Wait()

	s.mu.Lock()
	s.state = SweepDone
	done, failed, total := s.done, s.failed, len(s.jobs)
	s.mu.Unlock()
	s.publish("sweep_done", nil)
	s.log.Close()
	c.cfg.Logf("cluster: %s finished: %d/%d done, %d failed", s.ID, done, total, failed)
}

func (c *Coordinator) runSweepJob(s *Sweep, i int) {
	s.mu.Lock()
	s.jobs[i].State = "running"
	s.mu.Unlock()
	c.gInflight.Add(1)
	defer c.gInflight.Add(-1)

	res, err := c.Dispatch(c.baseCtx, s.jobs[i].Spec)

	s.mu.Lock()
	job := &s.jobs[i]
	if err != nil {
		job.State = "failed"
		job.Error = err.Error()
		s.failed++
	} else {
		job.State = "done"
		job.Worker = res.WorkerID
		job.Attempts = res.Attempts
		job.Replicated = res.Replicated
		job.StateHash = res.StateHash
		s.done++
	}
	jc := *job
	s.mu.Unlock()
	if err != nil {
		c.cSweepFailed.Inc()
	} else {
		c.cSweepDone.Inc()
	}
	s.publish("sweep_job", &jc)
}

// SweepByID looks up a sweep.
func (c *Coordinator) SweepByID(id string) (*Sweep, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.sweeps[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSweep, id)
	}
	return s, nil
}

// Sweeps lists all sweeps, most recent first.
func (c *Coordinator) Sweeps() []*Sweep {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Sweep, 0, len(c.sweeps))
	for _, s := range c.sweeps {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	return out
}

// EventLog exposes the sweep's SSE log (for serve.StreamSSE).
func (s *Sweep) EventLog() *serve.EventLog { return s.log }

// WaitDone blocks until the sweep is terminal or the timeout lapses.
func (s *Sweep) WaitDone(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		st := s.state
		s.mu.Unlock()
		if st == SweepDone {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}
