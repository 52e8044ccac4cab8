// Package server exposes the kanon pipeline as a long-running HTTP
// service: a job store (on disk, replicated, or in memory) whose
// bounded queue has admission control, one claim loop dispatching its
// jobs to a worker pool under leases and per-job deadlines, TTL
// eviction of finished jobs, and graceful shutdown.
//
// The HTTP surface:
//
//	POST   /v1/jobs            submit a CSV body with ?k=...&algo=... → 202 + job status
//	GET    /v1/jobs/{id}        job status JSON
//	GET    /v1/jobs/{id}/result anonymized CSV once succeeded
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /healthz             liveness + drain state
//	GET    /metrics             Prometheus text (via internal/obs)
//	/debug/pprof, /debug/vars, /debug/obs (via internal/obs)
//
// Results are byte-identical to `kanon` CLI runs with the same input,
// parameters, and seed: the service bounds and observes the NP-hard
// compute, it never alters it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"kanon/internal/obs"
	"kanon/internal/relation"
	"kanon/internal/store"
)

// Server is the HTTP front end of a Manager.
type Server struct {
	m   *Manager
	mux *http.ServeMux
}

// New builds a Server (and its Manager) from cfg. The returned server
// handles the /v1 job API plus the obs debug/metrics surface. Call
// Shutdown to stop it.
func New(cfg Config) *Server {
	m := NewManager(cfg)
	s := &Server{m: m}
	// The obs mux brings /metrics, /debug/pprof, /debug/vars, and
	// /debug/obs, all reading the manager's live telemetry registry.
	mux := obs.DebugMux(m.Snapshot)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if m.cfg.Store != nil {
		// Replication surface: what this node's store shows its peers.
		// Registered whenever a store exists — a shared-directory cluster
		// simply never gets polled.
		mux.HandleFunc("GET /v1/replica/jobs", s.handleReplicaJobs)
		mux.HandleFunc("GET /v1/replica/jobs/{id}/file", s.handleReplicaFile)
	}
	s.mux = mux
	return s
}

// Manager returns the server's job manager, for direct submission and
// inspection (tests, embedding).
func (s *Server) Manager() *Manager { return s.m }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown delegates to the manager: stop admission, drain until ctx
// expires, cancel the rest.
func (s *Server) Shutdown(ctx context.Context) error { return s.m.Shutdown(ctx) }

// handleSubmit ingests a CSV body and admits a job.
//
// Error mapping: oversized body → 413; malformed query/CSV/instance →
// 400; queue full → 429 with Retry-After; draining → 503.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := ParseJobRequest(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if key := r.Header.Get("Idempotency-Key"); key != "" {
		if err := store.ValidateIdempotencyKey(key); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		req.IdempotencyKey = key
		// Replay before reading the body: a duplicate costs one lookup,
		// not a full CSV parse.
		if st, ok := s.m.Idempotent(key); ok {
			s.replaySubmit(w, key, st)
			return
		}
	}
	body := http.MaxBytesReader(w, r.Body, s.m.cfg.MaxBodyBytes)
	header, rows, err := relation.ReadCSVRows(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.m.Submit(header, rows, req)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(max(1, s.m.cfg.RetryAfter.Seconds()))))
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrIdempotentReplay):
		// Lost a race with a duplicate of ourselves; the winner's job is
		// the submission's job.
		if st, ok := s.m.Idempotent(req.IdempotencyKey); ok {
			s.replaySubmit(w, req.IdempotencyKey, st)
			return
		}
		// The winner unwound (rejected) between its reservation and our
		// lookup; the client should retry.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrStore):
		writeError(w, http.StatusInternalServerError, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.IdempotencyKey != "" {
		w.Header().Set("Idempotency-Key", req.IdempotencyKey)
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, http.StatusAccepted, job.Status())
}

// replaySubmit answers a duplicate submission with the original job's
// acceptance: same 202, same Location, plus a marker header so clients
// can tell a replay from a fresh admission.
func (s *Server) replaySubmit(w http.ResponseWriter, key string, st Status) {
	w.Header().Set("Idempotency-Key", key)
	w.Header().Set("Idempotency-Replay", "true")
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

// handleReplicaJobs serves this node's job inventory — manifests plus
// spool-file listings — to replication peers.
func (s *Server) handleReplicaJobs(w http.ResponseWriter, r *http.Request) {
	jobs, err := s.m.cfg.Store.ReplicaJobs()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if jobs == nil {
		jobs = []store.ReplicaJob{}
	}
	writeJSON(w, http.StatusOK, jobs)
}

// handleReplicaFile serves one whitelisted spool file raw. 400 for a
// name outside the whitelist, 404 for a file (or job) that is gone —
// pullers treat 404 as "retry next round", not an error.
func (s *Server) handleReplicaFile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	name := r.URL.Query().Get("name")
	if err := store.ValidateID(id); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := store.ValidateReplicaFile(name); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	b, err := s.m.cfg.Store.ReadJobFile(id, name)
	if err != nil {
		writeError(w, http.StatusNotFound, errUnknownJob)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// handleStatus serves a job's lifecycle snapshot. The lookup reads
// through to the store, so on a shared store any node answers for any
// job in the cluster — including jobs submitted to, or finished by, a
// node that no longer exists.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.m.StatusOf(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleResult streams the anonymized CSV of a succeeded job. A job in
// any other state answers 409 with its status, so pollers can
// distinguish "not yet" from "never". Results of jobs another node
// ran come from the store's result spool.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.m.StatusOf(id)
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob)
		return
	}
	if st.State != StateSucceeded {
		writeJSON(w, http.StatusConflict, st)
		return
	}
	header, rows, err := s.m.ResultBytes(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	// Write errors past this point mean the client went away; there is
	// nothing useful to do with them.
	_ = relation.WriteCSVRows(w, header, rows)
}

// handleEvents serves the job's durable lifecycle journal as a JSON
// array. Read-through like status: any node answers for any job, so a
// survivor can narrate a job whose original owner is dead. A known job
// with nothing journaled yet answers an empty list.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	events, ok := s.m.EventsOf(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob)
		return
	}
	if events == nil {
		events = []obs.JournalEvent{}
	}
	writeJSON(w, http.StatusOK, events)
}

// handleTrace serves the job's merged span timeline (an obs.Snapshot):
// live while this node runs the job, the persisted trace.json
// otherwise. A job that crossed nodes answers one timeline whose root
// spans name every node that ran a segment, in wall-clock order.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.m.TraceOf(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleCancel requests cancellation and answers with the job's
// (possibly still running) status. The request reaches jobs anywhere
// on the store: queued jobs cancel on the spot wherever they were
// submitted, and a job running on another node is flagged through the
// store for its lease holder to notice at the next renewal.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.m.CancelByID(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownJob)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleHealthz reports liveness: 200 while admitting, 503 once
// draining, either way with the node's capacity picture — the payload
// a front-end router balances on.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.m.Health()
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

var errUnknownJob = errors.New("unknown job id")

// writeJSON encodes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError answers a JSON error envelope.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
