package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"rnrsim/internal/apps"
	"rnrsim/internal/bench"
	"rnrsim/internal/sim"
	"rnrsim/internal/telemetry"
)

// Server is the HTTP front-end over a Manager. Routes (Go 1.22 pattern
// syntax):
//
//	GET  /healthz                 liveness (503 once draining)
//	GET  /metrics                 Prometheus text exposition
//	POST /v1/runs                 submit a run spec → job (202 / 200 coalesced)
//	GET  /v1/runs                 list jobs (runs and experiments)
//	GET  /v1/runs/{id}            job status + result (?wait=1 blocks)
//	DELETE /v1/runs/{id}          cancel
//	GET  /v1/runs/{id}/events     SSE progress stream
//	GET  /v1/experiments          experiment registry
//	POST /v1/experiments/{id}     submit a whole-table experiment job
type Server struct {
	m   *Manager
	mux *http.ServeMux
}

// NewServer wires the route table over a running manager.
func NewServer(m *Manager) *Server {
	s := &Server{m: m, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	s.mux.HandleFunc("GET /v1/runs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/runs/{id}/lease", s.handleRenewLease)
	s.mux.HandleFunc("GET /v1/experiments", s.handleListExperiments)
	s.mux.HandleFunc("POST /v1/experiments/{id}", s.handleSubmitExperiment)
	s.mux.HandleFunc("GET /v1/worker/status", s.handleWorkerStatus)
	return s
}

// ServeHTTP dispatches to the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// errorBody is the JSON error envelope.
type errorBody struct {
	SchemaVersion string `json:"schema_version"`
	GeneratedAt   string `json:"generated_at"`
	Error         string `json:"error"`
}

// WriteJSON answers with status and v as indented JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError answers with status and the formatted message in the
// stamped JSON error envelope.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	schema, generated := sim.Stamp()
	WriteJSON(w, status, errorBody{
		SchemaVersion: schema,
		GeneratedAt:   generated,
		Error:         fmt.Sprintf(format, args...),
	})
}

// writeSubmitError maps manager submission errors onto HTTP statuses:
// validation → 400, queue full → 429 + Retry-After, draining → 503.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.m.RetryAfterJittered().Seconds())))
		WriteError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrDraining):
		WriteError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		WriteError(w, http.StatusBadRequest, "%v", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.m.Draining() {
		WriteError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WriteMetrics(w, 0, s.m.Registry(), telemetry.Default)
}

// handleSubmitRun submits a run. 202 for a freshly created job, 200 when
// the submission coalesced onto an existing one. ?wait=1 blocks until
// the job is terminal and returns the full result (the waiting client
// counts as a watcher: disconnecting mid-wait can abandon the job).
func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var spec RunSpec
	if !DecodeBody(w, r, &spec) {
		return
	}
	j, fresh, err := s.m.SubmitRun(spec)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	s.respondSubmitted(w, r, j, fresh)
}

func (s *Server) handleSubmitExperiment(w http.ResponseWriter, r *http.Request) {
	var spec RunSpec
	if !DecodeBody(w, r, &spec) {
		return
	}
	j, fresh, err := s.m.SubmitExperiment(r.PathValue("id"), spec)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	s.respondSubmitted(w, r, j, fresh)
}

func (s *Server) respondSubmitted(w http.ResponseWriter, r *http.Request, j *Job, fresh bool) {
	if wantWait(r) {
		if !s.waitForJob(w, r, j) {
			return
		}
		WriteJSON(w, http.StatusOK, j.View(true))
		return
	}
	status := http.StatusOK
	if fresh {
		status = http.StatusAccepted
	}
	WriteJSON(w, status, j.View(false))
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.m.Jobs()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.View(false)
	}
	schema, generated := sim.Stamp()
	WriteJSON(w, http.StatusOK, struct {
		SchemaVersion string    `json:"schema_version"`
		GeneratedAt   string    `json:"generated_at"`
		Jobs          []JobView `json:"jobs"`
	}{schema, generated, views})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.m.Job(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	if wantWait(r) && !j.State().Terminal() {
		if !s.waitForJob(w, r, j) {
			return
		}
	}
	WriteJSON(w, http.StatusOK, j.View(true))
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.m.Cancel(id); err != nil {
		WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	j, err := s.m.Job(id)
	if err != nil {
		WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	WriteJSON(w, http.StatusOK, j.View(false))
}

// waitForJob blocks until the job is terminal or the client goes away.
// The client counts as a watcher for the duration, so a disconnect can
// abandon (and thereby cancel) the job. Returns false when the client
// disconnected (nothing can be written).
func (s *Server) waitForJob(w http.ResponseWriter, r *http.Request, j *Job) bool {
	release := s.m.Watch(j)
	defer release()
	select {
	case <-j.Done():
		return true
	case <-r.Context().Done():
		return false
	}
}

// handleEvents is the SSE stream: retained history replays first (so a
// late subscriber still sees queued/running), then live events follow
// until the job is terminal. A reconnecting client that presents
// Last-Event-ID (or ?last_event_id=N) replays only the events it
// missed. The subscriber is a watcher: when the last one disconnects
// from a non-detached active job, the job is cancelled.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, err := s.m.Job(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	release := s.m.Watch(j)
	defer release()
	StreamSSE(w, r, j.log)
}

// handleRenewLease resets a leased job's expiry window. 404 for
// unknown addresses, 409 when the job exists but holds no live lease
// (never leased, or already terminal).
func (s *Server) handleRenewLease(w http.ResponseWriter, r *http.Request) {
	renewed, err := s.m.RenewLease(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	if !renewed {
		WriteError(w, http.StatusConflict, "job holds no live lease")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"renewed":true}`)
}

// handleWorkerStatus is the cluster heartbeat responder: one cheap GET
// a coordinator polls to judge this worker's health and load.
func (s *Server) handleWorkerStatus(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.m.WorkerStatus())
}

// ExperimentInfo is one row of the experiment registry listing.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Runs  int    `json:"runs"` // planned simulations at the default scale
}

func (s *Server) handleListExperiments(w http.ResponseWriter, r *http.Request) {
	suite := s.m.suite(s.m.Options().DefaultScale)
	infos := make([]ExperimentInfo, 0, len(bench.ExperimentIDs))
	for _, id := range bench.ExperimentIDs {
		infos = append(infos, ExperimentInfo{
			ID:    id,
			Title: bench.ExperimentTitle(id),
			Runs:  len(suite.Plan(id)),
		})
	}
	schema, generated := sim.Stamp()
	WriteJSON(w, http.StatusOK, struct {
		SchemaVersion string           `json:"schema_version"`
		GeneratedAt   string           `json:"generated_at"`
		DefaultScale  string           `json:"default_scale"`
		Scales        []string         `json:"scales"`
		Experiments   []ExperimentInfo `json:"experiments"`
	}{schema, generated, s.m.Options().DefaultScale, apps.ScaleNames, infos})
}

// MaxBodyBytes caps the JSON request bodies the daemons accept. Every
// spec they take (a run, a co-run job list, a sweep grid, a worker
// join) is a few hundred bytes, so 1 MiB only ever stops a runaway or
// hostile client from making the server buffer an unbounded body.
const MaxBodyBytes = 1 << 20

// DecodeBody decodes a JSON request body strictly (unknown fields are
// client errors) into v. An empty body decodes to the zero value. On
// failure it answers the request itself — 413 for a body over
// MaxBodyBytes, 400 for anything else — and returns false.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Body == nil || r.ContentLength == 0 {
		return true
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		WriteError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooLarge.Limit)
	} else {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

func wantWait(r *http.Request) bool {
	switch r.URL.Query().Get("wait") {
	case "1", "true", "yes":
		return true
	}
	return false
}
