// Package client is the Go SDK for the Chronos Control REST API. It is
// the Go counterpart of the paper's Java agent/client library: agents,
// CLIs and build bots use it to talk to Chronos Control without dealing
// with HTTP details.
//
// The client is version-aware: NewClient defaults to API v1; use
// WithVersion("v2") for the extended endpoints. All methods are safe for
// concurrent use.
package client

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"chronos/internal/api"
	"chronos/internal/core"
	"chronos/internal/params"
)

// Client talks to a Chronos Control server. When WithLeader points at a
// separate leader, baseURL is treated as the (follower) read path:
// mutations route to the leader, reads carry the session token for
// read-your-writes and fall back to the leader when the follower cannot
// serve them (see session.go).
type Client struct {
	baseURL    string
	version    string
	httpClient *http.Client
	agentToken string // shared agent token
	replToken  string // replication token (opens GET /metrics)

	leaderURL  string        // "" = baseURL is the leader
	reqTimeout time.Duration // per-attempt context deadline
	retries    int           // attempts for idempotent GETs
	retryBase  time.Duration // first retry backoff
	retryMax   time.Duration // backoff cap

	mu         sync.Mutex
	token      string          // session bearer token
	session    api.CommitToken // newest commit position seen (the ratchet)
	hasSession bool
	staged     map[string]string // job id -> log text waiting for that job's next call (StageLog)
	claimFor   map[string]string // job id -> deployment whose next job that job's Complete asks for (StageClaim)
	// held is, per deployment, the claim answer a Complete brought back and
	// ClaimJob has not yet returned: at most one, the slot reserved (a nil
	// entry) while the Complete that asked is in flight.
	held map[string]*api.ClaimResponse
}

// Option customises a Client.
type Option func(*Client)

// WithVersion selects the API version (v1 or v2).
func WithVersion(v string) Option { return func(c *Client) { c.version = v } }

// WithHTTPClient replaces the underlying HTTP client.
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.httpClient = h } }

// WithSessionToken sets the bearer token for management endpoints.
func WithSessionToken(tok string) Option { return func(c *Client) { c.token = tok } }

// WithAgentToken sets the shared secret for the agent endpoints.
func WithAgentToken(tok string) Option { return func(c *Client) { c.agentToken = tok } }

// WithReplToken sets the replication credential, presented with every
// request like the other two. The only client-facing endpoint it opens is
// GET /metrics, which shares the ship gate so scrapers can reuse the
// secret the follower fleet already holds.
func WithReplToken(tok string) Option { return func(c *Client) { c.replToken = tok } }

// NewClient creates a client for the server at baseURL (e.g.
// "http://localhost:8080").
func NewClient(baseURL string, opts ...Option) *Client {
	c := &Client{
		baseURL:    baseURL,
		version:    "v1",
		httpClient: &http.Client{Timeout: 30 * time.Second},
		reqTimeout: 15 * time.Second,
		retries:    3,
		retryBase:  100 * time.Millisecond,
		retryMax:   2 * time.Second,
		staged:     make(map[string]string),
		claimFor:   make(map[string]string),
		held:       make(map[string]*api.ClaimResponse),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Version reports the API version the client speaks.
func (c *Client) Version() string { return c.version }

// SetSessionToken installs a bearer token obtained via Login.
func (c *Client) SetSessionToken(tok string) {
	c.mu.Lock()
	c.token = tok
	c.mu.Unlock()
}

// SessionToken returns the bearer token in use, for a caller that hands
// the session Login opened to another process.
func (c *Client) SessionToken() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.token
}

// do routes one logical API call: mutations to the leader, idempotent
// GETs through the retrying read path with leader fallback (session.go).
func (c *Client) do(method, path string, body, out any) error {
	if method == http.MethodGet {
		return c.readLoop(func(base string) error {
			_, err := c.doOnce(base, method, path, nil, out)
			return err
		})
	}
	_, err := c.doOnce(c.writeBase(), method, path, body, out)
	return err
}

// call makes one API call and decodes the response's data into a fresh T.
// The pointer is never nil: beside an error it points at whatever was
// decoded before the error, usually the zero T.
func call[T any](c *Client, method, path string, body any) (*T, error) {
	out := new(T)
	return out, c.do(method, path, body, out)
}

// Ping checks connectivity and returns the server's version info.
func (c *Client) Ping() (api.PingResponse, error) {
	out, err := call[api.PingResponse](c, http.MethodGet, "/ping", nil)
	return *out, err
}

// ServerStatus returns the server's storage counters and, when it is a
// replication follower, its replication progress.
func (c *Client) ServerStatus() (api.ServerStatusResponse, error) {
	out, err := call[api.ServerStatusResponse](c, http.MethodGet, "/status", nil)
	return *out, err
}

// Login opens a session and installs its token on the client.
func (c *Client) Login(user, password string) error {
	var out api.LoginResponse
	if err := c.do(http.MethodPost, "/login", api.LoginRequest{User: user, Password: password}, &out); err != nil {
		return err
	}
	c.SetSessionToken(out.Token)
	return nil
}

// Logout terminates the session.
func (c *Client) Logout() error {
	return c.do(http.MethodPost, "/logout", struct{}{}, nil)
}

// --- management API ---

// CreateUser registers an account (admin only when auth is enabled).
func (c *Client) CreateUser(name string, role core.Role) (*core.User, error) {
	return call[core.User](c, http.MethodPost, "/users", api.CreateUserRequest{Name: name, Role: role})
}

// GetUser fetches one user.
func (c *Client) GetUser(id string) (*core.User, error) {
	return call[core.User](c, http.MethodGet, "/users/"+id, nil)
}

// ListUsers returns all users.
func (c *Client) ListUsers() ([]*core.User, error) {
	out, err := call[[]*core.User](c, http.MethodGet, "/users", nil)
	return *out, err
}

// CreateProject creates a project.
func (c *Client) CreateProject(name, description, ownerID string, memberIDs []string) (*core.Project, error) {
	return call[core.Project](c, http.MethodPost, "/projects", api.CreateProjectRequest{
		Name: name, Description: description, OwnerID: ownerID, MemberIDs: memberIDs,
	})
}

// ListProjects returns all projects.
func (c *Client) ListProjects() ([]*core.Project, error) {
	out, err := call[[]*core.Project](c, http.MethodGet, "/projects", nil)
	return *out, err
}

// ArchiveProject marks a project as archived.
func (c *Client) ArchiveProject(id string) error {
	return c.do(http.MethodPost, "/projects/"+id+"/archive", struct{}{}, nil)
}

// ExportProject downloads the project archive zip. Like every read it
// goes through the retrying read path: session token attached, leader
// fallback when the follower cannot serve it.
func (c *Client) ExportProject(id string) ([]byte, error) {
	var zip []byte
	path := "/projects/" + id + "/export"
	err := c.readLoop(func(base string) error {
		status, data, err := c.roundTrip(http.MethodGet, base+"/api/"+c.version+path, nil)
		if err != nil {
			return fmt.Errorf("client: GET %s: %w", path, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("client: export: %s", data)
		}
		zip = data
		return nil
	})
	return zip, err
}

// RegisterSystem declares an SuE.
func (c *Client) RegisterSystem(name, description string, defs []params.Definition, diagrams []core.DiagramSpec) (*core.System, error) {
	return call[core.System](c, http.MethodPost, "/systems", api.RegisterSystemRequest{
		Name: name, Description: description, Parameters: defs, Diagrams: diagrams,
	})
}

// GetSystem fetches one system.
func (c *Client) GetSystem(id string) (*core.System, error) {
	return call[core.System](c, http.MethodGet, "/systems/"+id, nil)
}

// ListSystems returns all systems.
func (c *Client) ListSystems() ([]*core.System, error) {
	out, err := call[[]*core.System](c, http.MethodGet, "/systems", nil)
	return *out, err
}

// CreateDeployment registers an SuE instance.
func (c *Client) CreateDeployment(systemID, name, environment, version string) (*core.Deployment, error) {
	return call[core.Deployment](c, http.MethodPost, "/deployments", api.CreateDeploymentRequest{
		SystemID: systemID, Name: name, Environment: environment, Version: version,
	})
}

// ListDeployments returns deployments, filtered by system when non-empty.
func (c *Client) ListDeployments(systemID string) ([]*core.Deployment, error) {
	path := "/deployments"
	if systemID != "" {
		path += "?system=" + systemID
	}
	out, err := call[[]*core.Deployment](c, http.MethodGet, path, nil)
	return *out, err
}

// SetDeploymentActive toggles a deployment.
func (c *Client) SetDeploymentActive(id string, active bool) error {
	return c.do(http.MethodPost, "/deployments/"+id+"/active", api.SetActiveRequest{Active: active}, nil)
}

// CreateExperiment defines an evaluation.
func (c *Client) CreateExperiment(projectID, systemID, name, description string, settings map[string][]params.Value, maxAttempts int) (*core.Experiment, error) {
	return call[core.Experiment](c, http.MethodPost, "/experiments", api.CreateExperimentRequest{
		ProjectID: projectID, SystemID: systemID, Name: name,
		Description: description, Settings: settings, MaxAttempts: maxAttempts,
	})
}

// ListExperiments returns experiments, filtered by project when set.
func (c *Client) ListExperiments(projectID string) ([]*core.Experiment, error) {
	path := "/experiments"
	if projectID != "" {
		path += "?project=" + projectID
	}
	out, err := call[[]*core.Experiment](c, http.MethodGet, path, nil)
	return *out, err
}

// CreateEvaluation schedules a run of an experiment (the build-bot hook).
func (c *Client) CreateEvaluation(experimentID string) (*core.Evaluation, []*core.Job, error) {
	var out api.CreateEvaluationResponse
	err := c.do(http.MethodPost, "/evaluations", api.CreateEvaluationRequest{ExperimentID: experimentID}, &out)
	if err != nil {
		return nil, nil, err
	}
	return out.Evaluation, out.Jobs, nil
}

// EvaluationStatus fetches the aggregate job state of an evaluation.
func (c *Client) EvaluationStatus(id string) (core.EvaluationStatus, error) {
	out, err := call[core.EvaluationStatus](c, http.MethodGet, "/evaluations/"+id+"/status", nil)
	return *out, err
}

// EvaluationJobs lists the jobs of an evaluation.
func (c *Client) EvaluationJobs(id string) ([]*core.Job, error) {
	out, err := call[[]*core.Job](c, http.MethodGet, "/evaluations/"+id+"/jobs", nil)
	return *out, err
}

// GetJob fetches one job.
func (c *Client) GetJob(id string) (*core.Job, error) {
	return call[core.Job](c, http.MethodGet, "/jobs/"+id, nil)
}

// AbortJob cancels a scheduled or running job.
func (c *Client) AbortJob(id string) error {
	return c.do(http.MethodPost, "/jobs/"+id+"/abort", struct{}{}, nil)
}

// RescheduleJob returns a failed job to the queue.
func (c *Client) RescheduleJob(id string) error {
	return c.do(http.MethodPost, "/jobs/"+id+"/reschedule", struct{}{}, nil)
}

// JobResult fetches a job's uploaded result.
func (c *Client) JobResult(id string) (*core.Result, error) {
	return call[core.Result](c, http.MethodGet, "/jobs/"+id+"/result", nil)
}

// JobPhases fetches the per-phase result rows of a dynamic-workload
// job; static jobs yield an empty list.
func (c *Client) JobPhases(id string) ([]core.PhaseResult, error) {
	out, err := call[[]core.PhaseResult](c, http.MethodGet, "/jobs/"+id+"/phases", nil)
	return *out, err
}

// JobLogs fetches a job's log chunks.
func (c *Client) JobLogs(id string) ([]*core.LogChunk, error) {
	out, err := call[[]*core.LogChunk](c, http.MethodGet, "/jobs/"+id+"/logs", nil)
	return *out, err
}

// JobTimeline fetches a job's event timeline.
func (c *Client) JobTimeline(id string) ([]*core.Event, error) {
	out, err := call[[]*core.Event](c, http.MethodGet, "/jobs/"+id+"/timeline", nil)
	return *out, err
}

// --- agent API (implements agent.Control) ---
//
// An agent's steady state is one request per job: the Complete of a job
// that StageClaim was called for also claims the deployment's next job, and
// the ClaimJob that follows returns it without a request. ClaimJob is a
// request of its own for the first job, on an empty queue and after a Fail;
// a reporting tick is one Progress. Log output handed to StageLog rides
// whichever of Progress, Complete or Fail comes next for that job and
// costs no request of its own; AppendLog is the call for log output nothing
// follows, and for callers that read the log back. The client asks for
// nothing it was not told to: without a StageClaim, Complete is the plain
// call, and a caller that stages owes the job a ClaimJob or a HandBack.

// ClaimJob asks for work on behalf of a deployment. Job is nil when the
// queue is empty. With API v2 the response includes the system's
// parameter definitions. A job claimed ahead by a Complete (StageClaim) is
// returned first, once, without a request. A disabled deployment is
// answered with an error that wraps core.ErrInactiveDeployment.
func (c *Client) ClaimJob(deploymentID string) (*core.Job, []params.Definition, error) {
	if h := c.takeHeld(deploymentID); h != nil {
		return h.Job, h.Parameters, nil
	}
	// A claim is a write: one request, to where writes go. Riding out a
	// restarting leader is the caller's policy (Agent.ClaimRetries).
	var out api.ClaimResponse
	status, err := c.doOnce(c.writeBase(), http.MethodPost, "/jobs/claim", api.ClaimRequest{DeploymentID: deploymentID}, &out)
	if status == http.StatusConflict {
		// The one thing a claim conflicts with. The envelope's text is
		// the sentinel's own; the sentinel is what Agent.Run keys on.
		return nil, nil, fmt.Errorf("client: POST /jobs/claim: %w", core.ErrInactiveDeployment)
	}
	if err != nil {
		return nil, nil, err
	}
	return out.Job, out.Parameters, nil
}

// StageLog holds log output for jobID until the job's next Progress,
// Complete or Fail, which carries it in its log field: the server stores
// it in that call's transaction, ahead of the state change, and keeps it
// even when it refuses the change. It issues no request and needs no
// acknowledgement — the text is stored no later than that next call
// returns. Text staged twice before one call arrives concatenated, in
// order; text staged for one job never rides another job's call. Delivery
// is at most once, as AppendLog's is: the text leaves the client with the
// request, and a request lost in transit takes it along.
func (c *Client) StageLog(jobID, text string) {
	if text == "" {
		return
	}
	c.mu.Lock()
	c.staged[jobID] += text
	c.mu.Unlock()
}

// StageClaim makes jobID's Complete also claim deploymentID's next job, in
// the completing transaction: the next ClaimJob(deploymentID) returns that
// job without a request. It issues no request itself. The stage rides only
// that job's Complete — a Fail for the job drops it, a Complete that errs
// drops it too and holds nothing — and the client keeps at most one job
// claimed ahead per deployment: a Complete that finds one held, or being
// asked for, goes out plain. The held job is running on the server; whoever
// stages must take it with ClaimJob or give it back with HandBack.
func (c *Client) StageClaim(jobID, deploymentID string) {
	c.mu.Lock()
	c.claimFor[jobID] = deploymentID
	c.mu.Unlock()
}

// HandBack releases the job claimed ahead for deploymentID that ClaimJob
// has not returned, if there is one: it goes back to the queue as it was,
// its attempt unspent (POST /jobs/{id}/release). With nothing held it
// issues no request. Only jobs the caller was never handed are released
// here, which is what keeps un-spending the attempt sound: no (job,
// attempt) a caller has seen is ever granted again.
func (c *Client) HandBack(deploymentID string) error {
	h := c.takeHeld(deploymentID)
	if h == nil {
		return nil
	}
	return c.do(http.MethodPost, "/jobs/"+h.Job.ID+"/release", struct{}{}, nil)
}

// takeHeld removes and returns the claim answer held for deploymentID; nil
// when there is none, or only the reservation of a Complete in flight.
func (c *Client) takeHeld(deploymentID string) *api.ClaimResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	h := c.held[deploymentID]
	if h != nil {
		delete(c.held, deploymentID)
	}
	return h
}

// takeStaged removes and returns the log output staged for jobID.
func (c *Client) takeStaged(jobID string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	text := c.staged[jobID]
	delete(c.staged, jobID)
	return text
}

// Progress reports completion percentage; the returned status lets the
// agent observe aborts.
func (c *Client) Progress(jobID string, percent int64) (core.JobStatus, error) {
	out, err := call[api.StatusResponse](c, http.MethodPost, "/jobs/"+jobID+"/progress", api.ProgressRequest{Percent: percent, Log: c.takeStaged(jobID)})
	return out.Status, err
}

// Heartbeat signals liveness without changing progress.
func (c *Client) Heartbeat(jobID string) (core.JobStatus, error) {
	out, err := call[api.StatusResponse](c, http.MethodPost, "/jobs/"+jobID+"/heartbeat", struct{}{})
	return out.Status, err
}

// AppendLog streams a chunk of log output in a request of its own: when
// it returns nil the chunk is stored and JobLogs shows it.
func (c *Client) AppendLog(jobID, text string) error {
	return c.do(http.MethodPost, "/jobs/"+jobID+"/log", api.LogRequest{Text: text}, nil)
}

// takeClosing removes what is staged for jobID's closing call: its log
// output, and the claim staged for its Complete. claimFor is the deployment
// to ask for, its slot reserved, and is set only when the call is the
// Complete (claim) and nothing is held or being asked for there already.
func (c *Client) takeClosing(jobID string, claim bool) (log, claimFor string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	log = c.staged[jobID]
	delete(c.staged, jobID)
	dep, ok := c.claimFor[jobID]
	delete(c.claimFor, jobID)
	if !ok || !claim {
		return log, ""
	}
	if _, taken := c.held[dep]; taken {
		return log, "" // one job ahead per deployment, never two
	}
	c.held[dep] = nil
	return log, dep
}

// Complete uploads the job result. After a StageClaim for the job it also
// asks for the deployment's next job and holds the answer for ClaimJob.
func (c *Client) Complete(jobID string, resultJSON, archive []byte) error {
	log, dep := c.takeClosing(jobID, true)
	req := api.CompleteRequest{ResultJSON: resultJSON, Archive: archive, Log: log, ClaimNext: dep}
	path := "/jobs/" + jobID + "/complete"
	if dep == "" {
		return c.do(http.MethodPost, path, req, nil)
	}
	next, err := call[api.ClaimResponse](c, http.MethodPost, path, req)
	c.mu.Lock()
	if err == nil && next.Job != nil {
		c.held[dep] = next
	} else {
		delete(c.held, dep) // nothing came of the reservation
	}
	c.mu.Unlock()
	return err
}

// Fail reports job failure. A claim staged for the job's Complete is
// dropped: it rides no other call.
func (c *Client) Fail(jobID, reason string) error {
	log, _ := c.takeClosing(jobID, false)
	return c.do(http.MethodPost, "/jobs/"+jobID+"/fail", api.FailRequest{Reason: reason, Log: log}, nil)
}

// BatchUpdate is the v2-only combined progress/log/heartbeat call.
func (c *Client) BatchUpdate(jobID string, percent *int64, logText string) (core.JobStatus, error) {
	if c.version != "v2" {
		return "", fmt.Errorf("client: BatchUpdate requires API v2 (have %s)", c.version)
	}
	out, err := call[api.StatusResponse](c, http.MethodPost, "/jobs/"+jobID+"/update", api.BatchUpdateRequest{Percent: percent, Log: logText})
	return out.Status, err
}
