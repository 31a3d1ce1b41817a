// Package core implements the Chronos Control domain: the data model of
// projects, experiments, evaluations, jobs, systems, deployments and
// results (paper §2.1), and the evaluation workflow engine that expands
// experiments into jobs, schedules jobs onto deployments, tracks their
// progress, logs and events, handles failures, and archives results.
//
// The package is the paper's primary contribution. Everything else in the
// repository is either a substrate it runs on (relstore for persistence),
// a client of it (REST API, web UI, agents), or a System under Evaluation
// it drives (mongosim).
package core

import (
	"fmt"
	"strconv"
	"time"

	"chronos/internal/jsonw"
	"chronos/internal/params"
)

// Role is a user's role within Chronos. Access permissions are handled at
// the level of projects (paper §2.1): admins manage everything, members
// work within the projects they belong to, viewers only read.
type Role string

const (
	// RoleAdmin may manage users, systems and all projects.
	RoleAdmin Role = "admin"
	// RoleMember may create and run evaluations in their projects.
	RoleMember Role = "member"
	// RoleViewer has read-only access to their projects.
	RoleViewer Role = "viewer"
)

// ValidRole reports whether r is a known role.
func ValidRole(r Role) bool {
	return r == RoleAdmin || r == RoleMember || r == RoleViewer
}

// User is an account in Chronos Control.
type User struct {
	ID       string    `json:"id"`
	Name     string    `json:"name"`
	Role     Role      `json:"role"`
	Created  time.Time `json:"created"`
	Disabled bool      `json:"disabled,omitempty"`
}

// Project is the organisational unit grouping experiments; every member
// of a project has access to all of its experiments, evaluations and
// results.
type Project struct {
	ID          string    `json:"id"`
	Name        string    `json:"name"`
	Description string    `json:"description,omitempty"`
	OwnerID     string    `json:"ownerId"`
	MemberIDs   []string  `json:"memberIds,omitempty"`
	Archived    bool      `json:"archived,omitempty"`
	Created     time.Time `json:"created"`
}

// HasMember reports whether the user participates in the project.
func (p *Project) HasMember(userID string) bool {
	if p.OwnerID == userID {
		return true
	}
	for _, id := range p.MemberIDs {
		if id == userID {
			return true
		}
	}
	return false
}

// DiagramSpec declares how one aspect of a system's results is to be
// visualised (paper §2.1 System: "how the results are structured and how
// they should be visualized").
type DiagramSpec struct {
	// Type is the diagram type: bar, line or pie (extensible via the
	// extension repositories).
	Type string `json:"type"`
	// Title captions the diagram.
	Title string `json:"title"`
	// Metric is the key into the result JSON's metric map.
	Metric string `json:"metric"`
	// XParam is the experiment parameter spanning the x-axis (line/bar).
	XParam string `json:"xParam,omitempty"`
	// SeriesParam is the parameter distinguishing the series (one line or
	// bar group per value), e.g. the storage engine.
	SeriesParam string `json:"seriesParam,omitempty"`
}

// System is the internal representation of a System under Evaluation:
// which parameters its evaluation client expects and how results are
// visualised.
type System struct {
	ID          string              `json:"id"`
	Name        string              `json:"name"`
	Description string              `json:"description,omitempty"`
	Parameters  []params.Definition `json:"parameters"`
	Diagrams    []DiagramSpec       `json:"diagrams,omitempty"`
	// Source optionally records the extension repository the definition
	// was loaded from (paper: git/mercurial repository of the SuE).
	Source  string    `json:"source,omitempty"`
	Created time.Time `json:"created"`
}

// ParamDef returns the named parameter definition.
func (s *System) ParamDef(name string) (params.Definition, bool) {
	for _, d := range s.Parameters {
		if d.Name == name {
			return d, true
		}
	}
	return params.Definition{}, false
}

// Deployment is an instance of an SuE in a specific environment. Multiple
// identical deployments parallelise an evaluation; different environments
// compare hardware or versions (paper §2.1).
type Deployment struct {
	ID          string    `json:"id"`
	SystemID    string    `json:"systemId"`
	Name        string    `json:"name"`
	Environment string    `json:"environment,omitempty"`
	Version     string    `json:"version,omitempty"`
	Active      bool      `json:"active"`
	Created     time.Time `json:"created"`
}

// Experiment is the definition of an evaluation with all its parameters;
// executing it creates an evaluation (paper §2.1).
type Experiment struct {
	ID          string `json:"id"`
	ProjectID   string `json:"projectId"`
	SystemID    string `json:"systemId"`
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Settings maps parameter names to the value variants the evaluation
	// sweeps; missing optional parameters use their defaults.
	Settings map[string][]params.Value `json:"settings"`
	// MaxAttempts bounds automatic re-scheduling of failed jobs
	// (requirement iii: recovery of failed evaluation runs).
	MaxAttempts int       `json:"maxAttempts,omitempty"`
	Archived    bool      `json:"archived,omitempty"`
	Created     time.Time `json:"created"`
}

// Evaluation is one run of an experiment, consisting of jobs.
type Evaluation struct {
	ID           string    `json:"id"`
	ExperimentID string    `json:"experimentId"`
	Number       int64     `json:"number"`
	Created      time.Time `json:"created"`
}

// JobStatus is the lifecycle state of a job (paper §2.1: scheduled,
// running, finished, aborted, failed).
type JobStatus string

const (
	// StatusScheduled means the job waits for an agent to claim it.
	StatusScheduled JobStatus = "scheduled"
	// StatusRunning means an agent is executing the job.
	StatusRunning JobStatus = "running"
	// StatusFinished means the job completed and uploaded its result.
	StatusFinished JobStatus = "finished"
	// StatusAborted means a user cancelled the job.
	StatusAborted JobStatus = "aborted"
	// StatusFailed means the job errored or its agent disappeared.
	StatusFailed JobStatus = "failed"
)

// ValidJobStatus reports whether s is a known status.
func ValidJobStatus(s JobStatus) bool {
	switch s {
	case StatusScheduled, StatusRunning, StatusFinished, StatusAborted, StatusFailed:
		return true
	}
	return false
}

// Terminal reports whether the status permits no further execution.
// Failed is non-terminal in the sense that it may be re-scheduled.
func (s JobStatus) Terminal() bool {
	return s == StatusFinished || s == StatusAborted
}

// legalTransitions captures the job state machine (paper §2.1: jobs in
// scheduled or running can be aborted; failed jobs can be re-scheduled).
// running -> scheduled is the hand-back of a job the agent that claimed
// it never started (ReleaseJob).
var legalTransitions = map[JobStatus][]JobStatus{
	StatusScheduled: {StatusRunning, StatusAborted},
	StatusRunning:   {StatusFinished, StatusFailed, StatusAborted, StatusScheduled},
	StatusFailed:    {StatusScheduled},
}

// CanTransition reports whether from -> to is a legal job transition.
func CanTransition(from, to JobStatus) bool {
	for _, t := range legalTransitions[from] {
		if t == to {
			return true
		}
	}
	return false
}

// Job is a subset of an evaluation: one benchmark run for a specific
// parameter assignment.
type Job struct {
	ID           string            `json:"id"`
	EvaluationID string            `json:"evaluationId"`
	SystemID     string            `json:"systemId"`
	Index        int64             `json:"index"`
	Params       params.Assignment `json:"params"`
	Status       JobStatus         `json:"status"`
	// DeploymentID is set while an agent executes the job.
	DeploymentID string `json:"deploymentId,omitempty"`
	// Progress is the completion percentage [0,100] reported by the agent.
	Progress int64 `json:"progress"`
	// Attempts counts executions including the current one.
	Attempts int64 `json:"attempts"`
	// Error holds the failure reason for failed jobs.
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
	// Heartbeat is the last agent liveness report. While the job runs it
	// is mirrored into a scalar, range-indexed column of the jobs table
	// so the watchdog finds stale jobs with an indexed range scan
	// instead of decoding every running job.
	Heartbeat time.Time `json:"heartbeat"`
}

// AppendJSON appends j's JSON to dst. It writes, byte for byte, what
// encoding/json writes for Job's fields by reflection (null for a nil
// job), and fails where that fails: on a time RFC 3339 cannot write, or a
// parameter value with no JSON form. Every job on the wire is written
// here — MarshalJSON calls it, and a 1,000-job answer is appended with it
// (Jobs) instead of reflected.
func (j *Job) AppendJSON(dst []byte) ([]byte, error) {
	if j == nil {
		return append(dst, "null"...), nil
	}
	dst = jsonw.String(append(dst, `{"id":`...), j.ID)
	dst = jsonw.String(append(dst, `,"evaluationId":`...), j.EvaluationID)
	dst = jsonw.String(append(dst, `,"systemId":`...), j.SystemID)
	dst = strconv.AppendInt(append(dst, `,"index":`...), j.Index, 10)
	dst, err := j.Params.AppendJSON(append(dst, `,"params":`...))
	if err != nil {
		return nil, fmt.Errorf("core: job %s params: %w", j.ID, err)
	}
	dst = jsonw.String(append(dst, `,"status":`...), string(j.Status))
	if j.DeploymentID != "" {
		dst = jsonw.String(append(dst, `,"deploymentId":`...), j.DeploymentID)
	}
	dst = strconv.AppendInt(append(dst, `,"progress":`...), j.Progress, 10)
	dst = strconv.AppendInt(append(dst, `,"attempts":`...), j.Attempts, 10)
	if j.Error != "" {
		dst = jsonw.String(append(dst, `,"error":`...), j.Error)
	}
	for _, f := range [...]struct {
		key string
		t   time.Time
	}{{`,"created":`, j.Created}, {`,"started":`, j.Started}, {`,"finished":`, j.Finished}, {`,"heartbeat":`, j.Heartbeat}} {
		if dst, err = jsonw.Time(append(dst, f.key...), f.t); err != nil {
			return nil, fmt.Errorf("core: job %s %s: %w", j.ID, f.key[2:len(f.key)-2], err)
		}
	}
	return append(dst, '}'), nil
}

// MarshalJSON implements json.Marshaler with AppendJSON.
func (j Job) MarshalJSON() ([]byte, error) {
	return j.AppendJSON(make([]byte, 0, 512))
}

// Jobs is a list of jobs that appends its own JSON, for the answers that
// carry a whole evaluation's jobs.
type Jobs []*Job

// AppendJSON appends js's JSON to dst: what json.Marshal writes for it,
// null for a nil list.
func (js Jobs) AppendJSON(dst []byte) ([]byte, error) {
	if js == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, j := range js {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = j.AppendJSON(dst); err != nil {
			return nil, err
		}
	}
	return append(dst, ']'), nil
}

// Label renders the job's parameter assignment for UI lists.
func (j *Job) Label() string {
	if len(j.Params) == 0 {
		return fmt.Sprintf("job %d", j.Index)
	}
	return j.Params.Encode()
}

// Result belongs to a job: a JSON document with every data item required
// for the analysis, plus an optional zip archive with auxiliary files
// (paper §2.1).
type Result struct {
	JobID    string    `json:"jobId"`
	JSON     []byte    `json:"json"`
	Archive  []byte    `json:"archive,omitempty"`
	Uploaded time.Time `json:"uploaded"`
}

// EventKind classifies timeline events (paper Fig. 3c shows the job
// timeline).
type EventKind string

const (
	// EventCreated marks entity creation.
	EventCreated EventKind = "created"
	// EventClaimed marks an agent claiming a job.
	EventClaimed EventKind = "claimed"
	// EventProgress marks a progress update.
	EventProgress EventKind = "progress"
	// EventFinished marks successful completion.
	EventFinished EventKind = "finished"
	// EventFailed marks a failure.
	EventFailed EventKind = "failed"
	// EventAborted marks a user abort.
	EventAborted EventKind = "aborted"
	// EventRescheduled marks a failed job returning to the queue.
	EventRescheduled EventKind = "rescheduled"
	// EventReleased marks a claimed job handed back unrun, its attempt
	// not spent.
	EventReleased EventKind = "released"
	// EventHeartbeatLost marks watchdog-detected agent loss.
	EventHeartbeatLost EventKind = "heartbeat-lost"
	// EventResult marks a result upload.
	EventResult EventKind = "result"
)

// Event is one timeline entry attached to a job.
type Event struct {
	ID      string    `json:"id"`
	JobID   string    `json:"jobId"`
	Kind    EventKind `json:"kind"`
	Message string    `json:"message,omitempty"`
	Time    time.Time `json:"time"`
}

// LogChunk is a piece of the log output an agent streams for a job
// (paper §2.2: "the agent periodically sends the output of the logger").
type LogChunk struct {
	JobID string    `json:"jobId"`
	Seq   int64     `json:"seq"`
	Text  string    `json:"text"`
	Time  time.Time `json:"time"`
}

// EvaluationStatus aggregates the job states of an evaluation for the UI
// overview (paper Fig. 3b).
type EvaluationStatus struct {
	EvaluationID string `json:"evaluationId"`
	Total        int    `json:"total"`
	Scheduled    int    `json:"scheduled"`
	Running      int    `json:"running"`
	Finished     int    `json:"finished"`
	Aborted      int    `json:"aborted"`
	Failed       int    `json:"failed"`
	// Progress is the mean job progress in percent.
	Progress float64 `json:"progress"`
}

// Done reports whether no job can still make progress.
func (s EvaluationStatus) Done() bool {
	return s.Scheduled == 0 && s.Running == 0 && s.Failed == 0 && s.Total > 0
}
