// Package api declares the wire types (request and response bodies) of
// the Chronos Control REST API. Both the server (internal/rest) and the
// Go client SDK (pkg/client) build on these, keeping the two sides of the
// protocol in a single place.
package api

import (
	"fmt"
	"strconv"
	"strings"

	"chronos/internal/core"
	"chronos/internal/httputil"
	"chronos/internal/params"
	"chronos/internal/relstore"
)

// Session-consistency headers. Every successful data response carries
// the serving store's commit position as a session token; a client that
// threads its newest token into follower reads gets read-your-writes and
// monotonic reads without giving up the scaled read path.
const (
	// HeaderCommitPosition is set on successful data responses: the
	// position (and generation) the serving store had reached, as a
	// CommitToken string. On a leader that position covers the request's
	// own write; on a follower it is the applied position the response
	// was served from.
	HeaderCommitPosition = "X-Chronos-Commit-Position"
	// HeaderReadAfter carries a CommitToken on follower reads: do not
	// answer from state older than this position. The follower waits
	// (bounded) for its applied position to reach it; 503 + Retry-After
	// means "not there yet, retry or fall back to the leader", 412 means
	// the token's generation can never be satisfied here (a pre-restart
	// epoch or a foreign store) and only the leader can serve it.
	HeaderReadAfter = "X-Chronos-Read-After"
	// HeaderReplToken carries the replication credential. Its canonical
	// home is here (rather than the repl package, which aliases it) so
	// pkg/client can open the GET /metrics ship gate without importing
	// the replication machinery.
	HeaderReplToken = "X-Chronos-Repl-Token"
	// HeaderTrace carries the client-minted request id. The server's
	// access middleware echoes it on the response and stamps it on the
	// request's log lines (see internal/httputil).
	HeaderTrace = httputil.HeaderTrace
)

// CommitToken is a session token: a WAL commit position made portable.
// StoreID and Epoch pin the generation (history identity) the position
// is relative to — positions from different generations are never
// compared, they fail closed instead (see relstore's generation.go).
type CommitToken struct {
	StoreID string `json:"storeId"`
	Epoch   int64  `json:"epoch"`
	Seq     int64  `json:"seq"`
	Off     int64  `json:"off"`
}

// String renders the wire form, "storeID:epoch:seq:off".
func (t CommitToken) String() string {
	return t.StoreID + ":" + strconv.FormatInt(t.Epoch, 10) + ":" +
		strconv.FormatInt(t.Seq, 10) + ":" + strconv.FormatInt(t.Off, 10)
}

// ParseCommitToken decodes the wire form produced by String.
func ParseCommitToken(s string) (CommitToken, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 4 || parts[0] == "" {
		return CommitToken{}, fmt.Errorf("api: malformed commit token %q", s)
	}
	var nums [3]int64
	for i, p := range parts[1:] {
		n, err := strconv.ParseInt(p, 10, 64)
		if err != nil || n < 0 {
			return CommitToken{}, fmt.Errorf("api: malformed commit token %q", s)
		}
		nums[i] = n
	}
	if nums[0] < 1 {
		return CommitToken{}, fmt.Errorf("api: malformed commit token %q (epoch must be >= 1)", s)
	}
	return CommitToken{StoreID: parts[0], Epoch: nums[0], Seq: nums[1], Off: nums[2]}, nil
}

// SameGeneration reports whether both tokens name positions in the same
// WAL history, making their positions comparable.
func (t CommitToken) SameGeneration(o CommitToken) bool {
	return t.StoreID == o.StoreID && t.Epoch == o.Epoch
}

// Covers reports whether t's position is at or past o's. Only meaningful
// when SameGeneration(o) holds.
func (t CommitToken) Covers(o CommitToken) bool {
	return t.Seq > o.Seq || (t.Seq == o.Seq && t.Off >= o.Off)
}

// PingResponse reports the API version and server identity.
type PingResponse struct {
	Service  string   `json:"service"`
	Version  string   `json:"version"`
	Versions []string `json:"versions"`
}

// LoginRequest carries credentials.
type LoginRequest struct {
	User     string `json:"user"`
	Password string `json:"password"`
}

// LoginResponse carries the bearer token.
type LoginResponse struct {
	Token  string    `json:"token"`
	UserID string    `json:"userId"`
	Role   core.Role `json:"role"`
}

// CreateUserRequest registers an account.
type CreateUserRequest struct {
	Name string    `json:"name"`
	Role core.Role `json:"role"`
}

// CreateProjectRequest creates a project.
type CreateProjectRequest struct {
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	OwnerID     string   `json:"ownerId"`
	MemberIDs   []string `json:"memberIds,omitempty"`
}

// AddMemberRequest adds a user to a project.
type AddMemberRequest struct {
	UserID string `json:"userId"`
}

// RegisterSystemRequest declares an SuE.
type RegisterSystemRequest struct {
	Name        string              `json:"name"`
	Description string              `json:"description,omitempty"`
	Parameters  []params.Definition `json:"parameters"`
	Diagrams    []core.DiagramSpec  `json:"diagrams,omitempty"`
}

// CreateDeploymentRequest registers an SuE instance.
type CreateDeploymentRequest struct {
	SystemID    string `json:"systemId"`
	Name        string `json:"name"`
	Environment string `json:"environment,omitempty"`
	Version     string `json:"version,omitempty"`
}

// SetActiveRequest toggles a deployment.
type SetActiveRequest struct {
	Active bool `json:"active"`
}

// CreateExperimentRequest defines an evaluation.
type CreateExperimentRequest struct {
	ProjectID   string                    `json:"projectId"`
	SystemID    string                    `json:"systemId"`
	Name        string                    `json:"name"`
	Description string                    `json:"description,omitempty"`
	Settings    map[string][]params.Value `json:"settings"`
	MaxAttempts int                       `json:"maxAttempts,omitempty"`
}

// CreateEvaluationRequest schedules a run of an experiment. This is also
// the endpoint a build bot calls after a successful build (paper §2.2).
type CreateEvaluationRequest struct {
	ExperimentID string `json:"experimentId"`
}

// CreateEvaluationResponse returns the evaluation and its jobs.
type CreateEvaluationResponse struct {
	Evaluation *core.Evaluation `json:"evaluation"`
	Jobs       []*core.Job      `json:"jobs"`
}

// ClaimRequest asks for work on behalf of a deployment.
type ClaimRequest struct {
	DeploymentID string `json:"deploymentId"`
}

// ClaimResponse carries the claimed job; Job is nil when no work is
// available. The v2 API additionally inlines the system's parameter
// definitions so agents need no extra round-trip.
type ClaimResponse struct {
	Job *core.Job `json:"job,omitempty"`
	// Parameters is only populated by /api/v2 (versioned evolution).
	Parameters []params.Definition `json:"parameters,omitempty"`
}

// ProgressRequest reports completion percentage. Log, on this and on the
// complete and fail requests, is agent log output riding the call: the
// server stores it as one chunk in the call's own transaction, ahead of
// the state change, and keeps it even when it refuses the state change —
// what a POST .../log sent just before would have left behind, without
// the request, the commit and the fsync of its own.
type ProgressRequest struct {
	Percent int64  `json:"percent"`
	Log     string `json:"log,omitempty"`
}

// StatusResponse reports the job's current status after an agent call,
// letting agents observe aborts.
type StatusResponse struct {
	Status core.JobStatus `json:"status"`
}

// LogRequest streams a chunk of agent log output.
type LogRequest struct {
	Text string `json:"text"`
}

// CompleteRequest uploads the job result. Archive travels base64-encoded
// within the JSON body (the []byte JSON encoding).
//
// ClaimNext, a deployment id, asks for that deployment's next job in the
// same call: the server claims it in the completing transaction — one
// commit and one fsync for both — and answers with exactly what POST
// /jobs/claim would have answered, a ClaimResponse (job absent on an empty
// queue), instead of "completed". A refused completion claims nothing and
// is answered as without it; an unknown or inactive deployment claims
// nothing and the completion stands. A job claimed this way is running and
// counts against its attempts like any other: a caller that will not run
// it gives it back with POST /jobs/{id}/release. Without ClaimNext the
// call is what it always was.
type CompleteRequest struct {
	ResultJSON []byte `json:"resultJson"`
	Archive    []byte `json:"archive,omitempty"`
	Log        string `json:"log,omitempty"`
	ClaimNext  string `json:"claimNext,omitempty"`
}

// FailRequest reports a job failure.
type FailRequest struct {
	Reason string `json:"reason"`
	Log    string `json:"log,omitempty"`
}

// BatchUpdateRequest is the v2-only combined progress+log+heartbeat call:
// one request and one transaction per reporting interval. A nil Percent
// leaves the progress value alone (the heartbeat form).
type BatchUpdateRequest struct {
	Percent *int64 `json:"percent,omitempty"`
	Log     string `json:"log,omitempty"`
}

// ServerStatusResponse reports the control server's storage and
// replication state (GET /api/{v}/status): storage-level counters for
// any server, plus replication progress when the server is a read-only
// follower.
type ServerStatusResponse struct {
	Service string `json:"service"`
	// Mode is "leader" (accepts writes, ships its WAL) or "follower"
	// (read-only, replicating from Repl.Leader).
	Mode    string         `json:"mode"`
	Storage relstore.Stats `json:"storage"`
	Repl    *ReplStatus    `json:"repl,omitempty"`
}

// ReplStatus is a follower's view of its replication progress.
type ReplStatus struct {
	// Leader is the base URL replication ships from.
	Leader string `json:"leader"`
	// AppliedSeq/AppliedBytes is the locally durable, applied position:
	// segment number and byte offset within it (mirroring the leader's
	// numbering).
	AppliedSeq   int64 `json:"appliedSeq"`
	AppliedBytes int64 `json:"appliedBytes"`
	// LeaderSeq/LeaderBytes is the leader's durable tip as of the last
	// contact.
	LeaderSeq   int64 `json:"leaderSeq"`
	LeaderBytes int64 `json:"leaderBytes"`
	// LagSegments counts whole segments the follower is behind; LagBytes
	// refines it to bytes when both sides are in the same segment (-1
	// when they are not, since sealed segment sizes are not known here).
	LagSegments int64 `json:"lagSegments"`
	LagBytes    int64 `json:"lagBytes"`
	// Bootstraps counts snapshot re-bootstraps (1 for the initial one of
	// a fresh replica; more mean the leader compacted past this follower
	// or shipped history diverged).
	Bootstraps int64 `json:"bootstraps"`
	// LastError surfaces the most recent replication error ("" while
	// healthy); the follower keeps retrying on its own.
	LastError string `json:"lastError,omitempty"`
	// StoreID/Epoch name the leader generation the follower's state is
	// verified against ("" / 0 while unverified — fresh replica, mid
	// re-bootstrap, or a leader that restarted since last contact).
	// Session tokens from any other generation are refused with 412.
	StoreID string `json:"storeId,omitempty"`
	Epoch   int64  `json:"epoch,omitempty"`
	// StalenessMs is how long ago the follower last proved its applied
	// position caught up with the leader's durable tip (-1: never yet).
	// It keeps growing while the leader is unreachable, even if no
	// writes are happening — staleness is about what the follower can
	// prove, not about what it happens to miss.
	StalenessMs int64 `json:"stalenessMs"`
	// MaxStalenessMs is the follower REST server's serving budget (0 =
	// unbounded); Degraded reports the budget is exhausted and reads are
	// being refused with 503 until the follower proves itself fresh.
	MaxStalenessMs int64 `json:"maxStalenessMs,omitempty"`
	Degraded       bool  `json:"degraded,omitempty"`
}
