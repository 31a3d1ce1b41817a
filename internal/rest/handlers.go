package rest

import (
	"encoding/json"
	"net/http"

	"chronos/internal/api"
	"chronos/internal/core"
	"chronos/internal/httputil"
)

// --- adapters: one per endpoint shape ---
//
// Most endpoints only decode, call one core.Service method, map its error
// through fail and write the envelope. The route table feeds the service
// method to the adapter of its shape. Every request body in the package
// is decoded in decode, and every adapter answers through reply.

// decode parses the JSON request body into dst; on a malformed body it
// answers 400 and reports false.
func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	if err := httputil.DecodeJSON(r, dst); err != nil {
		httputil.WriteError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// reply answers with the outcome of a service call: the error mapped
// through fail, or data in a success envelope.
func reply(w http.ResponseWriter, status int, data any, err error) {
	if err != nil {
		fail(w, err)
		return
	}
	httputil.WriteJSON(w, status, data)
}

// byID serves a call keyed by the path's {id}.
func byID[T any](f func(id string) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, err := f(r.PathValue("id"))
		reply(w, http.StatusOK, v, err)
	}
}

// byQuery serves a list filtered by one query parameter ("" lists all).
func byQuery[T any](param string, f func(filter string) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, err := f(r.URL.Query().Get(param))
		reply(w, http.StatusOK, v, err)
	}
}

// all serves an unfiltered list.
func all[T any](f func() (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		v, err := f()
		reply(w, http.StatusOK, v, err)
	}
}

// act serves a body-less action on {id}, answering with the word done.
func act(done string, f func(id string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reply(w, http.StatusOK, done, f(r.PathValue("id")))
	}
}

// body serves a JSON-body call: f gets the path's {id} ("" on collection
// routes) and the decoded request, and its value is answered with status.
func body[Req, T any](status int, f func(id string, req Req) (T, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !decode(w, r, &req) {
			return
		}
		v, err := f(r.PathValue("id"), req)
		reply(w, status, v, err)
	}
}

// --- JSON-body calls: wire request -> core.Service arguments ---

func (s *Server) createUser(_ string, q api.CreateUserRequest) (*core.User, error) {
	return s.svc.CreateUser(q.Name, q.Role)
}

func (s *Server) createProject(_ string, q api.CreateProjectRequest) (*core.Project, error) {
	return s.svc.CreateProject(q.Name, q.Description, q.OwnerID, q.MemberIDs)
}

func (s *Server) addProjectMember(id string, q api.AddMemberRequest) (string, error) {
	return "added", s.svc.AddProjectMember(id, q.UserID)
}

func (s *Server) registerSystem(_ string, q api.RegisterSystemRequest) (*core.System, error) {
	return s.svc.RegisterSystem(q.Name, q.Description, q.Parameters, q.Diagrams)
}

func (s *Server) createDeployment(_ string, q api.CreateDeploymentRequest) (*core.Deployment, error) {
	return s.svc.CreateDeployment(q.SystemID, q.Name, q.Environment, q.Version)
}

func (s *Server) setDeploymentActive(id string, q api.SetActiveRequest) (string, error) {
	return "updated", s.svc.SetDeploymentActive(id, q.Active)
}

func (s *Server) createExperiment(_ string, q api.CreateExperimentRequest) (*core.Experiment, error) {
	return s.svc.CreateExperiment(q.ProjectID, q.SystemID, q.Name, q.Description, q.Settings, q.MaxAttempts)
}

func (s *Server) createEvaluation(_ string, q api.CreateEvaluationRequest) (api.CreateEvaluationResponse, error) {
	ev, jobs, err := s.svc.CreateEvaluation(q.ExperimentID)
	return api.CreateEvaluationResponse{Evaluation: ev, Jobs: jobs}, err
}

// jobStatus wraps the job status agents read back to observe aborts.
func jobStatus(st core.JobStatus, err error) (api.StatusResponse, error) {
	return api.StatusResponse{Status: st}, err
}

func (s *Server) progress(id string, q api.ProgressRequest) (api.StatusResponse, error) {
	return jobStatus(s.svc.UpdateJob(id, &q.Percent, q.Log))
}

func (s *Server) heartbeat(id string) (api.StatusResponse, error) {
	return jobStatus(s.svc.Heartbeat(id))
}

func (s *Server) appendLog(id string, q api.LogRequest) (string, error) {
	return "logged", s.svc.AppendJobLog(id, q.Text)
}

// claim hands out the deployment's next job (nil: its queue is empty). It
// is a write like any other: a follower refuses it read-only.
func (s *Server) claim(version string) func(_ string, q api.ClaimRequest) (claimAnswer, error) {
	return func(_ string, q api.ClaimRequest) (claimAnswer, error) {
		job, defs, err := s.svc.Claim(q.DeploymentID)
		return answerClaim(version, job, defs), err
	}
}

// complete closes a job; with claimNext it also claims that deployment's
// next job in the same transaction and answers what a claim would have.
func (s *Server) complete(version string) func(id string, q api.CompleteRequest) (any, error) {
	return func(id string, q api.CompleteRequest) (any, error) {
		next, defs, err := s.svc.CompleteJobClaimNext(id, q.ResultJSON, q.Archive, q.Log, q.ClaimNext)
		if err != nil || q.ClaimNext == "" {
			return "completed", err
		}
		return answerClaim(version, next, defs), nil
	}
}

func (s *Server) failJob(id string, q api.FailRequest) (string, error) {
	return "failed", s.svc.FailJob(id, q.Reason, q.Log)
}

// batchUpdate is v2's combined agent call — an optional log chunk, progress
// when a percentage is given and a bare heartbeat otherwise — in the one
// transaction progress itself is.
func (s *Server) batchUpdate(id string, q api.BatchUpdateRequest) (api.StatusResponse, error) {
	return jobStatus(s.svc.UpdateJob(id, q.Percent, q.Log))
}

// --- handlers with logic of their own ---

// handleExportProject answers with the project archive itself, not an
// envelope.
func (s *Server) handleExportProject(w http.ResponseWriter, r *http.Request) {
	data, err := s.svc.ExportProject(r.PathValue("id"))
	if err != nil {
		fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/zip")
	w.Header().Set("Content-Disposition", "attachment; filename=project-export.zip")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// claimAnswer is api.ClaimResponse as the server writes it: the parameter
// definitions go out as the store holds them, JSON that is neither decoded
// nor encoded again on the way. An empty Parameters is left out, as an
// empty slice of definitions is.
type claimAnswer struct {
	Job        *core.Job       `json:"job,omitempty"`
	Parameters json.RawMessage `json:"parameters,omitempty"`
}

// answerClaim is the answer to a claim, whichever call made it: the job
// (nil: the queue was empty) and, from v2 on, its system's parameter
// definitions.
func answerClaim(version string, job *core.Job, defs json.RawMessage) claimAnswer {
	if version != "v2" {
		defs = nil
	}
	return claimAnswer{Job: job, Parameters: defs}
}
