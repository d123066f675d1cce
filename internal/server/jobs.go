package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"bfdn"
	"bfdn/internal/jobstore"
)

// jobsResponse is the GET /v1/jobs body.
type jobsResponse struct {
	Jobs []bfdn.JobInfo `json:"jobs"`
}

// handleJobs lists the persistent job store: one row per job with its
// content-addressed ID, kind, done flag and journal length.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotFound, "job store is not configured (start bfdnd with -store)")
		return
	}
	jobs, err := s.cfg.Store.Jobs()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if jobs == nil {
		jobs = []bfdn.JobInfo{}
	}
	writeJSON(w, http.StatusOK, jobsResponse{Jobs: jobs})
}

// resumeRequest is the POST /v1/resume body: the job to resume (an ID from
// GET /v1/jobs), plus an optional timeout for the resumed run.
type resumeRequest struct {
	Job       string `json:"job"`
	TimeoutMS int64  `json:"timeoutMs"`
}

// handleResume re-drives a stored sweep job from its journal: points already
// journaled stream back immediately, the rest are simulated and journaled,
// and the combined stream is byte-identical to an uninterrupted run of the
// original request (the crash-recovery procedure of OPERATIONS.md §6).
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeError(w, http.StatusNotFound, "job store is not configured (start bfdnd with -store)")
		return
	}
	var req resumeRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.Job == "" {
		writeError(w, http.StatusBadRequest, "need a job ID (see GET /v1/jobs)")
		return
	}
	job, err := s.cfg.Store.Store().Get(req.Job)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}

	// The manifest's plan bytes reconstruct the original request. A strict
	// decode rejects manifests this daemon cannot re-drive — facade-created
	// jobs whose plan is an opaque fingerprint, or kinds (explore, dsweep)
	// that resume through the facade or the coordinator instead.
	switch job.Kind() {
	case syncGrid.kind:
		resumeGrid(s, w, r, syncGrid, job, req.TimeoutMS)
	case asyncGrid.kind:
		resumeGrid(s, w, r, asyncGrid, job, req.TimeoutMS)
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("job %s has kind %q: explore jobs resume by re-running with the bfdn facade's WithCheckpoint and dsweep jobs through the coordinator, not over HTTP", req.Job, job.Kind()))
	}
}

// resumeGrid re-drives a stored grid job of engine e. The job's own plan
// bytes key the run, so it hits the stored journal by construction.
func resumeGrid[S pointSpec, P, Rep any](s *Server, w http.ResponseWriter, r *http.Request,
	e gridEngine[S, P, Rep], job *jobstore.Job, timeoutMS int64) {
	var plan gridPlan[S]
	dec := json.NewDecoder(bytes.NewReader(job.Plan()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&plan); err != nil {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("job %s has no resumable plan (%v); only jobs created over HTTP can resume here", job.ID(), err))
		return
	}
	req := gridRequest[S]{Seed: plan.Seed, IndexBase: plan.IndexBase, TimeoutMS: timeoutMS, Points: plan.Points}
	ctx, cancel := s.requestContext(r, timeoutMS)
	defer cancel()
	s.runJob(ctx, w, r, "resume", func(ctx context.Context) {
		s.m.jsResumes.Inc()
		gridJob(ctx, s, w, e, req, job.Plan())
	})
}

// handleRegister and handleWorkers expose the fleet registry when one is
// configured: workers heartbeat here (POST /v1/register) and coordinators
// read the live fleet (GET /v1/workers) instead of being handed a static
// -workers list.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Registry == nil {
		writeError(w, http.StatusNotFound, "fleet registry is not configured (start bfdnd with -registry)")
		return
	}
	s.cfg.Registry.ServeRegister(w, r)
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Registry == nil {
		writeError(w, http.StatusNotFound, "fleet registry is not configured (start bfdnd with -registry)")
		return
	}
	s.cfg.Registry.ServeWorkers(w, r)
}
