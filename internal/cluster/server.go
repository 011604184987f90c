package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"rnrsim/internal/serve"
	"rnrsim/internal/sim"
	"rnrsim/internal/telemetry"
)

// Server is the coordinator's HTTP front-end. Routes:
//
//	GET    /healthz                   liveness (503 + Retry-After when the ring is empty)
//	GET    /metrics                   Prometheus text exposition (cluster instruments)
//	POST   /v1/cluster/join           worker registration {"id","url"}
//	DELETE /v1/cluster/workers/{id}   graceful worker leave
//	GET    /v1/cluster/workers        registry listing with health states
//	POST   /v1/runs                   dispatch one run to its ring owner (synchronous)
//	POST   /v1/sweeps                 submit a parameter grid → 202 sweep
//	GET    /v1/sweeps                 sweep listing
//	GET    /v1/sweeps/{id}            sweep status + per-cell table
//	GET    /v1/sweeps/{id}/events     aggregate SSE progress stream (resumable)
//
// The dispatch route mirrors the worker's POST /v1/runs shape, so a
// client written against a single rnrd talks to a coordinator
// unchanged — it just gets retries, health routing and hash checking
// for free.
type Server struct {
	c   *Coordinator
	mux *http.ServeMux
}

// NewServer wires the route table over a running coordinator.
func NewServer(c *Coordinator) *Server {
	s := &Server{c: c, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/cluster/join", s.handleJoin)
	s.mux.HandleFunc("DELETE /v1/cluster/workers/{id}", s.handleLeave)
	s.mux.HandleFunc("GET /v1/cluster/workers", s.handleWorkers)
	s.mux.HandleFunc("POST /v1/runs", s.handleDispatch)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleListSweeps)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleGetSweep)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleSweepEvents)
	return s
}

// ServeHTTP dispatches to the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeUnavailable degrades gracefully: 503 with a jittered
// Retry-After so a thinned-out ring sheds load instead of timing out,
// and the retry herd arrives spread out.
func (s *Server) writeUnavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(int(s.c.RetryAfterJittered().Seconds())))
	serve.WriteError(w, http.StatusServiceUnavailable, "%v", err)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.c.LiveWorkers() == 0 {
		s.writeUnavailable(w, ErrNoWorkers)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"workers\":%d}\n", s.c.LiveWorkers())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	regs := []*telemetry.Registry{s.c.Registry()}
	if s.c.Registry() != telemetry.Default {
		regs = append(regs, telemetry.Default)
	}
	_ = serve.WriteMetrics(w, 0, regs...)
}

// joinRequest is the worker registration body.
type joinRequest struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !serve.DecodeBody(w, r, &req) {
		return
	}
	if err := s.c.AddWorker(req.ID, req.URL); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, struct {
		Joined  string `json:"joined"`
		Workers int    `json:"workers"`
	}{req.ID, s.c.LiveWorkers()})
}

func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.c.RemoveWorker(id); err != nil {
		serve.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, struct {
		Left    string `json:"left"`
		Workers int    `json:"workers"`
	}{id, s.c.LiveWorkers()})
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	schema, generated := sim.Stamp()
	serve.WriteJSON(w, http.StatusOK, struct {
		SchemaVersion string       `json:"schema_version"`
		GeneratedAt   string       `json:"generated_at"`
		Workers       []WorkerInfo `json:"workers"`
	}{schema, generated, s.c.Workers()})
}

// handleDispatch routes one run to its ring owner and blocks until it
// completes (the coordinator holds the lease for the duration).
// Error mapping: spec/deterministic job failure → 400, no live worker
// → 503 + Retry-After, cross-worker hash mismatch → 500 (loud: the
// cluster is producing untrustworthy results), exhausted retries → 502.
func (s *Server) handleDispatch(w http.ResponseWriter, r *http.Request) {
	var spec serve.RunSpec
	if !serve.DecodeBody(w, r, &spec) {
		return
	}
	res, err := s.c.Dispatch(r.Context(), spec)
	if err != nil {
		switch {
		case errors.Is(err, ErrNoWorkers):
			s.writeUnavailable(w, err)
		case errors.Is(err, ErrHashMismatch):
			serve.WriteError(w, http.StatusInternalServerError, "%v", err)
		case errors.Is(err, ErrJobFailed):
			serve.WriteError(w, http.StatusBadRequest, "%v", err)
		case errors.Is(err, context.Canceled):
			// Client went away; nothing useful to write.
			serve.WriteError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			serve.WriteError(w, http.StatusBadGateway, "%v", err)
		}
		return
	}
	serve.WriteJSON(w, http.StatusOK, res)
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	if !serve.DecodeBody(w, r, &spec) {
		return
	}
	if s.c.LiveWorkers() == 0 {
		s.writeUnavailable(w, ErrNoWorkers)
		return
	}
	sw, err := s.c.StartSweep(spec)
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusAccepted, sw.View(false))
}

func (s *Server) handleListSweeps(w http.ResponseWriter, r *http.Request) {
	sweeps := s.c.Sweeps()
	views := make([]SweepView, len(sweeps))
	for i, sw := range sweeps {
		views[i] = sw.View(false)
	}
	schema, generated := sim.Stamp()
	serve.WriteJSON(w, http.StatusOK, struct {
		SchemaVersion string      `json:"schema_version"`
		GeneratedAt   string      `json:"generated_at"`
		Sweeps        []SweepView `json:"sweeps"`
	}{schema, generated, views})
}

func (s *Server) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	sw, err := s.c.SweepByID(r.PathValue("id"))
	if err != nil {
		serve.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, sw.View(true))
}

// handleSweepEvents streams the sweep's aggregate progress over SSE:
// one channel carrying per-cell completions and running done/failed
// counters, resumable with Last-Event-ID like the worker job streams.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	sw, err := s.c.SweepByID(r.PathValue("id"))
	if err != nil {
		serve.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	serve.StreamSSE(w, r, sw.EventLog())
}
