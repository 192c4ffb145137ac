// checkpoint.go is the serving half of checkpoint/resume: the job lookup
// behind POST /jobs/{job}/suspend and /jobs/{job}/resume, the
// checkpoint template stamped onto durable /run submissions, and the startup
// recovery pass that replays the store and re-admits unfinished jobs under
// their original job ids.
package loopd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"loopsched/internal/bench"
	"loopsched/internal/jobs"
)

// checkpointFor builds the durable-snapshot template of one /run job: the
// workload name plus its encoded parameters, everything recovery needs to
// rebuild the request (closures cannot be persisted). Nil without a store.
func (s *Server) checkpointFor(workload string, params bench.JobParams) *jobs.Checkpoint {
	if s.ckpts == nil {
		return nil
	}
	raw, err := json.Marshal(params)
	if err != nil {
		return nil
	}
	return &jobs.Checkpoint{Workload: workload, Params: raw}
}

// recoverFromStore replays the checkpoint store at startup: every unfinished
// job is re-submitted from its cursor watermark under its original job id,
// in ascending id order so dependency edges (which always point at older
// jobs) can be rebuilt from already-recovered handles. Upstream ids absent
// from the store finished before the crash and gate nothing.
func (s *Server) recoverFromStore() error {
	cps, err := s.ckpts.Load()
	if err != nil {
		return err
	}
	byID := make(map[uint64]*jobs.Job, len(cps))
	for i := range cps {
		cp := cps[i]
		var params bench.JobParams
		if len(cp.Params) > 0 {
			if err := json.Unmarshal(cp.Params, &params); err != nil {
				return fmt.Errorf("checkpoint recovery: job %d params: %w", cp.JobID, err)
			}
		}
		req, err := bench.NewJobRequest(cp.Workload, params)
		if err != nil {
			return fmt.Errorf("checkpoint recovery: job %d: %w", cp.JobID, err)
		}
		req.Label, req.Tenant, req.Priority, req.Deadline = cp.Label, cp.Tenant, cp.Priority, cp.Deadline
		for _, up := range cp.After {
			if uj, ok := byID[up]; ok {
				req.After = append(req.After, uj)
			}
		}
		req.Checkpoint = &cp
		j, err := s.rt.Submit(req)
		if err != nil {
			return fmt.Errorf("checkpoint recovery: job %d: %w", cp.JobID, err)
		}
		byID[cp.JobID] = j
		s.recovered.Add(1)
	}
	return nil
}

// liveJob resolves the {job} path parameter to the in-flight job the tracer
// knows by that id: the runtime makes a job its trace's owner before it can
// be dispatched, so a client acting on any event after submission finds it.
// On failure it has already written the response: 400 for a malformed id,
// 404 when tracing is off (jobs are not addressable) or the job is not in
// flight.
func (s *Server) liveJob(w http.ResponseWriter, r *http.Request) (*jobs.Job, uint64, bool) {
	if s.tracer == nil {
		http.Error(w, "job control needs tracing (run loopd with -trace or -checkpoint-dir)", http.StatusNotFound)
		return nil, 0, false
	}
	id, err := strconv.ParseUint(r.PathValue("job"), 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad job id: %v", err), http.StatusBadRequest)
		return nil, 0, false
	}
	j, _ := s.tracer.Owner(id).(*jobs.Job)
	if j == nil {
		http.Error(w, fmt.Sprintf("job %d is not in flight (completed, never submitted, or still waiting for a queue slot)", id), http.StatusNotFound)
		return nil, 0, false
	}
	return j, id, true
}

// jobControlResponse is the JSON body of the suspend/resume endpoints. State
// is the job state observed immediately after the operation; a suspend of a
// running job reports "running" until the quiesce parks it (poll /events or
// re-read via a later call).
type jobControlResponse struct {
	Job   uint64 `json:"job"`
	State string `json:"state"`
}

// handleSuspend parks a queued or running job at its next chunk-wave
// boundary with its progress checkpointed. 409 when the job refuses
// (blocked, terminal, or rigid mid-run).
func (s *Server) handleSuspend(w http.ResponseWriter, r *http.Request) {
	j, id, ok := s.liveJob(w, r)
	if !ok {
		return
	}
	if !j.Suspend() {
		http.Error(w, fmt.Sprintf("job %d cannot be suspended (state %s)", id, j.State()), http.StatusConflict)
		return
	}
	writeJSON(w, jobControlResponse{Job: id, State: j.State().String()})
}

// handleResume re-admits a suspended job from its checkpointed watermark.
// 409 when the job is not suspended (a quiescing job has not parked yet).
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	j, id, ok := s.liveJob(w, r)
	if !ok {
		return
	}
	if !j.Resume() {
		http.Error(w, fmt.Sprintf("job %d cannot be resumed (state %s)", id, j.State()), http.StatusConflict)
		return
	}
	writeJSON(w, jobControlResponse{Job: id, State: j.State().String()})
}
