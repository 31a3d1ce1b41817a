package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"chronos/internal/relstore"
)

// Store maps the Chronos domain entities onto relstore tables. Each table
// carries the scalar columns used in queries (indexed where the access
// paths need it) plus the full entity as JSON, mirroring how the original
// Chronos Control keeps its MySQL schema thin and reconstructs rich
// objects in the application layer.
//
// Single-row reads decode inside the caller's transaction. Multi-row
// reads return jsonRows — the matching rows' stored bytes — and the
// Service decodes them after its View has returned (readRows): relstore
// never mutates a committed value, so the bytes keep the View's cut, and
// decoding, nearly all of such a read's cost, no longer holds the store
// lock that every agent commit (and, on a follower, every apply) waits
// for.
type Store struct {
	db *relstore.DB
}

// Table names.
const (
	tableUsers       = "users"
	tableProjects    = "projects"
	tableSystems     = "systems"
	tableDeployments = "deployments"
	tableExperiments = "experiments"
	tableEvaluations = "evaluations"
	tableJobs        = "jobs"
	tableResults     = "results"
	tableLogs        = "logs"
	tableEvents      = "events"
)

// NewStore creates all tables on the given database. A read-only
// replication follower's are not its to create: schema and rows arrive
// through WAL shipping, and until the leader's table creations have, reads
// of a missing table fail cleanly.
func NewStore(db *relstore.DB) (*Store, error) {
	schemas := []relstore.Schema{
		{Name: tableUsers, Key: "id", Columns: []relstore.Column{
			{Name: "id", Type: relstore.TString},
			{Name: "name", Type: relstore.TString, Indexed: true},
			{Name: "data", Type: relstore.TBytes},
		}},
		{Name: tableProjects, Key: "id", Columns: []relstore.Column{
			{Name: "id", Type: relstore.TString},
			{Name: "archived", Type: relstore.TBool},
			{Name: "data", Type: relstore.TBytes},
		}},
		{Name: tableSystems, Key: "id", Columns: []relstore.Column{
			{Name: "id", Type: relstore.TString},
			{Name: "name", Type: relstore.TString, Indexed: true},
			{Name: "data", Type: relstore.TBytes},
		}},
		{Name: tableDeployments, Key: "id", Columns: []relstore.Column{
			{Name: "id", Type: relstore.TString},
			{Name: "systemId", Type: relstore.TString, Indexed: true},
			{Name: "active", Type: relstore.TBool},
			// name mirrors Deployment.Name as a scalar so ClaimJob can
			// stamp its timeline event without decoding the deployment
			// blob on every claim. Nullable so stores persisted before
			// this column existed upgrade in place; such rows fall back
			// to the JSON decode.
			{Name: "name", Type: relstore.TString, Nullable: true},
			{Name: "data", Type: relstore.TBytes},
		}},
		{Name: tableExperiments, Key: "id", Columns: []relstore.Column{
			{Name: "id", Type: relstore.TString},
			{Name: "projectId", Type: relstore.TString, Indexed: true},
			{Name: "systemId", Type: relstore.TString, Indexed: true},
			// maxAttempts mirrors Experiment.MaxAttempts as a scalar so
			// failJob reads the attempt budget without decoding the whole
			// settings blob (which grows with the parameter sweep).
			// Nullable because the column was added by an in-place schema
			// upgrade; every row a store of this format can hold carries it.
			{Name: "maxAttempts", Type: relstore.TInt, Nullable: true},
			{Name: "data", Type: relstore.TBytes},
		}},
		{Name: tableEvaluations, Key: "id", Columns: []relstore.Column{
			{Name: "id", Type: relstore.TString},
			{Name: "experimentId", Type: relstore.TString, Indexed: true},
			{Name: "data", Type: relstore.TBytes},
		}},
		{Name: tableJobs, Key: "id", Columns: []relstore.Column{
			{Name: "id", Type: relstore.TString},
			{Name: "evaluationId", Type: relstore.TString, Indexed: true},
			{Name: "systemId", Type: relstore.TString, Indexed: true},
			{Name: "status", Type: relstore.TString, Indexed: true},
			{Name: "created", Type: relstore.TTime},
			// heartbeat mirrors Job.Heartbeat as a scalar — for running
			// jobs only — so the watchdog's "status=running AND heartbeat
			// < cutoff" scan compares one column per running job instead
			// of decoding its JSON. Nullable for exactly that: scheduled
			// and terminal rows leave it out.
			{Name: "heartbeat", Type: relstore.TTime, Nullable: true},
			{Name: "data", Type: relstore.TBytes},
		}},
		{Name: tableResults, Key: "id", Columns: []relstore.Column{
			{Name: "id", Type: relstore.TString}, // job id
			{Name: "data", Type: relstore.TBytes},
		}},
		{Name: tableLogs, Key: "id", Columns: []relstore.Column{
			{Name: "id", Type: relstore.TString}, // jobId#seq
			{Name: "jobId", Type: relstore.TString, Indexed: true},
			{Name: "seq", Type: relstore.TInt},
			{Name: "data", Type: relstore.TBytes},
		}},
		{Name: tableEvents, Key: "id", Columns: []relstore.Column{
			{Name: "id", Type: relstore.TString},
			{Name: "jobId", Type: relstore.TString, Indexed: true},
			{Name: "time", Type: relstore.TTime},
			// kind/message carry the whole event as scalars: events are
			// tiny, write-heavy (one per job transition, two per claim
			// poll cycle) and read rarely, so since this schema revision
			// the write path marshals no JSON at all. All three trailing
			// columns are nullable — rows persisted by older stores carry
			// the JSON blob instead and decode through it on read.
			{Name: "kind", Type: relstore.TString, Nullable: true},
			{Name: "message", Type: relstore.TString, Nullable: true},
			{Name: "data", Type: relstore.TBytes, Nullable: true},
		}},
	}
	for _, s := range schemas {
		if err := db.CreateTable(s); errors.Is(err, relstore.ErrReadOnly) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("core: create table %s: %w", s.Name, err)
		}
	}
	return &Store{db: db}, nil
}

// DB exposes the underlying store for transaction control.
func (s *Store) DB() *relstore.DB { return s.db }

// StorageStats reports the relstore-level counters — rows, live WAL
// segments and bytes, completed compaction cycles and the last
// background-compaction error — for operational surfaces (the control
// daemon logs them; tests assert on them).
func (s *Store) StorageStats() relstore.Stats { return s.db.Stats() }

// putJSON marshals entity into the table's data column alongside the
// scalar query columns. The row maps callers pass in are built for this
// call and never touched again, so ownership transfers to the store
// without a clone.
func putJSON(tx *relstore.Tx, table string, row relstore.Row, entity any) error {
	data, err := json.Marshal(entity)
	if err != nil {
		return fmt.Errorf("core: marshal %s row: %w", table, err)
	}
	row["data"] = data
	return tx.PutOwned(table, row)
}

// getJSON unmarshals the data column of the row with the given id.
func getJSON(tx *relstore.Tx, table, id string, out any) error {
	row, err := tx.Get(table, id)
	if err != nil {
		return err
	}
	return json.Unmarshal(row["data"].([]byte), out)
}

// decodeJSON unmarshals one row's data column.
func decodeJSON(table string, data []byte, out any) error {
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("core: decode %s row: %w", table, err)
	}
	return nil
}

// jsonRows is the data column of every row a multi-row read matched, in
// key order, taken inside a transaction to be decoded after it.
type jsonRows[T any] struct {
	table string
	data  [][]byte
}

// selectRows takes the data column of every row matching q. It decodes
// nothing: relstore's committed values are immutable, so the slices stay
// valid — and still the transaction's cut — once it has ended.
func selectRows[T any](tx *relstore.Tx, table string, q *relstore.Query) (jsonRows[T], error) {
	rows := jsonRows[T]{table: table}
	err := tx.SelectFunc(table, q, func(row relstore.Row) bool {
		rows.data = append(rows.data, row["data"].([]byte))
		return true
	})
	return rows, err
}

// decode unmarshals every row, outside any transaction. The entities
// share one backing array: one allocation for the lot, not one each.
func (r jsonRows[T]) decode() ([]*T, error) {
	vals := make([]T, len(r.data))
	out := make([]*T, len(r.data))
	for i, b := range r.data {
		if err := decodeJSON(r.table, b, &vals[i]); err != nil {
			return nil, err
		}
		out[i] = &vals[i]
	}
	return out, nil
}

// readRows runs read in a View and decodes what it took once the View has
// returned: the store lock is held for the scan alone.
func readRows[T any](db *relstore.DB, read func(*relstore.Tx) (jsonRows[T], error)) ([]*T, error) {
	var rows jsonRows[T]
	err := db.View(func(tx *relstore.Tx) error {
		var err error
		rows, err = read(tx)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows.decode()
}

// eachRow streams the rows matching q to fn inside tx, stopping at fn's
// first error and returning it.
func eachRow(tx *relstore.Tx, table string, q *relstore.Query, fn func(relstore.Row) error) error {
	var ferr error
	err := tx.SelectFunc(table, q, func(row relstore.Row) bool {
		ferr = fn(row)
		return ferr == nil
	})
	if err != nil {
		return err
	}
	return ferr
}

// --- Users ---

// PutUser stores a user.
func (s *Store) PutUser(tx *relstore.Tx, u *User) error {
	return putJSON(tx, tableUsers, relstore.Row{"id": u.ID, "name": u.Name}, u)
}

// GetUser loads a user by id.
func (s *Store) GetUser(tx *relstore.Tx, id string) (*User, error) {
	var u User
	if err := getJSON(tx, tableUsers, id, &u); err != nil {
		return nil, err
	}
	return &u, nil
}

// FindUserByName returns the user with the given (unique) name.
func (s *Store) FindUserByName(tx *relstore.Tx, name string) (*User, error) {
	rows, err := tx.Select(tableUsers, relstore.NewQuery().Eq("name", name).Limit(1))
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, relstore.ErrNotFound
	}
	var u User
	if err := json.Unmarshal(rows[0]["data"].([]byte), &u); err != nil {
		return nil, err
	}
	return &u, nil
}

// ListUsers returns all users ordered by id.
func (s *Store) ListUsers(tx *relstore.Tx) (jsonRows[User], error) {
	return selectRows[User](tx, tableUsers, relstore.NewQuery())
}

// --- Projects ---

// PutProject stores a project.
func (s *Store) PutProject(tx *relstore.Tx, p *Project) error {
	return putJSON(tx, tableProjects, relstore.Row{"id": p.ID, "archived": p.Archived}, p)
}

// GetProject loads a project by id.
func (s *Store) GetProject(tx *relstore.Tx, id string) (*Project, error) {
	var p Project
	if err := getJSON(tx, tableProjects, id, &p); err != nil {
		return nil, err
	}
	return &p, nil
}

// ListProjects returns all projects ordered by id.
func (s *Store) ListProjects(tx *relstore.Tx) (jsonRows[Project], error) {
	return selectRows[Project](tx, tableProjects, relstore.NewQuery())
}

// --- Systems ---

// PutSystem stores a system.
func (s *Store) PutSystem(tx *relstore.Tx, sys *System) error {
	return putJSON(tx, tableSystems, relstore.Row{"id": sys.ID, "name": sys.Name}, sys)
}

// GetSystem loads a system by id.
func (s *Store) GetSystem(tx *relstore.Tx, id string) (*System, error) {
	var sys System
	if err := getJSON(tx, tableSystems, id, &sys); err != nil {
		return nil, err
	}
	return &sys, nil
}

// ListSystems returns all systems ordered by id.
func (s *Store) ListSystems(tx *relstore.Tx) (jsonRows[System], error) {
	return selectRows[System](tx, tableSystems, relstore.NewQuery())
}

// --- Deployments ---

// PutDeployment stores a deployment.
func (s *Store) PutDeployment(tx *relstore.Tx, d *Deployment) error {
	row := relstore.Row{"id": d.ID, "systemId": d.SystemID, "active": d.Active, "name": d.Name}
	return putJSON(tx, tableDeployments, row, d)
}

// DeploymentClaimInfo returns the three deployment fields ClaimJob reads
// — systemId, name, active — as scalar column lookups, no JSON decoded.
// Claiming is the scheduler's hottest write path: with agents polling
// for work, decoding the full deployment blob per claim dominated the
// transaction's allocations. Rows persisted before the scalar name
// column existed fall back to decoding the blob once — they can still
// exist: the column arrived with the binary row format and no build ever
// rewrote them, so they survive the documented upgrade route (as do the
// events rows eventFromRow falls back for).
func (s *Store) DeploymentClaimInfo(tx *relstore.Tx, id string) (systemID, name string, active bool, err error) {
	v, err := tx.GetValue(tableDeployments, id, "active")
	if err != nil {
		return "", "", false, err
	}
	active = v.(bool)
	sys, err := tx.GetValue(tableDeployments, id, "systemId")
	if err != nil {
		return "", "", false, err
	}
	n, err := tx.GetValue(tableDeployments, id, "name")
	if err != nil {
		return "", "", false, err
	}
	if n == nil {
		// Pre-upgrade row: the name only lives inside the JSON blob.
		var d Deployment
		if err := getJSON(tx, tableDeployments, id, &d); err != nil {
			return "", "", false, err
		}
		return d.SystemID, d.Name, active, nil
	}
	return sys.(string), n.(string), active, nil
}

// GetDeployment loads a deployment by id.
func (s *Store) GetDeployment(tx *relstore.Tx, id string) (*Deployment, error) {
	var d Deployment
	if err := getJSON(tx, tableDeployments, id, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// ListDeployments returns the deployments of a system (all systems when
// systemID is empty).
func (s *Store) ListDeployments(tx *relstore.Tx, systemID string) (jsonRows[Deployment], error) {
	q := relstore.NewQuery()
	if systemID != "" {
		q = q.Eq("systemId", systemID)
	}
	return selectRows[Deployment](tx, tableDeployments, q)
}

// --- Experiments ---

// PutExperiment stores an experiment.
func (s *Store) PutExperiment(tx *relstore.Tx, e *Experiment) error {
	row := relstore.Row{
		"id": e.ID, "projectId": e.ProjectID, "systemId": e.SystemID,
		"maxAttempts": int64(e.MaxAttempts),
	}
	return putJSON(tx, tableExperiments, row, e)
}

// AttemptBudget returns the attempt budget of the experiment behind the
// given evaluation: the scalar maxAttempts column, reached through the
// evaluation's scalar experimentId column — two key lookups, no JSON
// decoded. This is failJob's hot path: every failure consults the
// budget, and decoding the experiment's settings blob (which grows with
// the parameter sweep) per failure made failure storms O(settings).
// ok is false when the evaluation or experiment is gone, or the row has
// no budget column (caller applies its default).
func (s *Store) AttemptBudget(tx *relstore.Tx, evaluationID string) (budget int64, ok bool, err error) {
	expID, err := tx.GetValue(tableEvaluations, evaluationID, "experimentId")
	if err != nil {
		if err == relstore.ErrNotFound {
			return 0, false, nil
		}
		return 0, false, err
	}
	v, err := tx.GetValue(tableExperiments, expID.(string), "maxAttempts")
	if err != nil {
		if err == relstore.ErrNotFound {
			return 0, false, nil
		}
		return 0, false, err
	}
	budget, ok = v.(int64)
	return budget, ok, nil
}

// GetExperiment loads an experiment by id.
func (s *Store) GetExperiment(tx *relstore.Tx, id string) (*Experiment, error) {
	var e Experiment
	if err := getJSON(tx, tableExperiments, id, &e); err != nil {
		return nil, err
	}
	return &e, nil
}

// ListExperiments returns the experiments of a project (all when empty).
func (s *Store) ListExperiments(tx *relstore.Tx, projectID string) (jsonRows[Experiment], error) {
	q := relstore.NewQuery()
	if projectID != "" {
		q = q.Eq("projectId", projectID)
	}
	return selectRows[Experiment](tx, tableExperiments, q)
}

// --- Evaluations ---

// PutEvaluation stores an evaluation.
func (s *Store) PutEvaluation(tx *relstore.Tx, ev *Evaluation) error {
	row := relstore.Row{"id": ev.ID, "experimentId": ev.ExperimentID}
	return putJSON(tx, tableEvaluations, row, ev)
}

// GetEvaluation loads an evaluation by id.
func (s *Store) GetEvaluation(tx *relstore.Tx, id string) (*Evaluation, error) {
	var ev Evaluation
	if err := getJSON(tx, tableEvaluations, id, &ev); err != nil {
		return nil, err
	}
	return &ev, nil
}

// ListEvaluations returns the evaluations of an experiment (all when
// empty).
func (s *Store) ListEvaluations(tx *relstore.Tx, experimentID string) (jsonRows[Evaluation], error) {
	q := relstore.NewQuery()
	if experimentID != "" {
		q = q.Eq("experimentId", experimentID)
	}
	return selectRows[Evaluation](tx, tableEvaluations, q)
}

// --- Jobs ---

// PutJob stores a job.
func (s *Store) PutJob(tx *relstore.Tx, j *Job) error {
	row := relstore.Row{
		"id":           j.ID,
		"evaluationId": j.EvaluationID,
		"systemId":     j.SystemID,
		"status":       string(j.Status),
		"created":      j.Created,
	}
	// Only running jobs carry the scalar heartbeat: the watchdog reads it
	// on running rows alone, so the finished/failed history that
	// accumulates stays narrow — one column fewer in every terminal row
	// logged, snapshotted and shipped. Scheduled and terminal rows keep
	// the heartbeat only inside their JSON blob.
	if j.Status == StatusRunning {
		row["heartbeat"] = j.Heartbeat
	}
	return putJSON(tx, tableJobs, row, j)
}

// GetJob loads a job by id.
func (s *Store) GetJob(tx *relstore.Tx, id string) (*Job, error) {
	var j Job
	if err := getJSON(tx, tableJobs, id, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// ListJobsByEvaluation returns all jobs of an evaluation ordered by id.
func (s *Store) ListJobsByEvaluation(tx *relstore.Tx, evaluationID string) (jsonRows[Job], error) {
	return selectRows[Job](tx, tableJobs, relstore.NewQuery().Eq("evaluationId", evaluationID))
}

// jobsByStatusQuery builds the indexed query for status (+ optional
// system) lookups. Both conditions are Eq on indexed columns so the
// planner can drive from the smaller posting list and probe the other.
func jobsByStatusQuery(status JobStatus, systemID string) *relstore.Query {
	q := relstore.NewQuery().Eq("status", string(status))
	if systemID != "" {
		q = q.Eq("systemId", systemID)
	}
	return q
}

// FirstJobByStatus returns the oldest (lowest-id, i.e. first-created)
// job with the given status, optionally restricted to a system. It is
// the scheduler's claim lookup: a Limit(1) indexed select that decodes
// exactly one row. Returns (nil, nil) when no job matches.
func (s *Store) FirstJobByStatus(tx *relstore.Tx, status JobStatus, systemID string) (*Job, error) {
	var data []byte
	err := tx.SelectFunc(tableJobs, jobsByStatusQuery(status, systemID).Limit(1), func(row relstore.Row) bool {
		data = row["data"].([]byte)
		return false
	})
	if err != nil || data == nil {
		return nil, err
	}
	var j Job
	if err := decodeJSON(tableJobs, data, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// EachStaleRunningJobID streams the ids of running jobs whose heartbeat
// is strictly before cutoff. The status index drives and the cutoff is
// one scalar compare per running row — O(running), with no job JSON
// decoded at all.
func (s *Store) EachStaleRunningJobID(tx *relstore.Tx, cutoff time.Time, fn func(id string) bool) error {
	q := relstore.NewQuery().Eq("status", string(StatusRunning)).Lt("heartbeat", cutoff)
	return tx.SelectFunc(tableJobs, q, func(row relstore.Row) bool {
		return fn(row["id"].(string))
	})
}

// jobProgress is the part of a job's JSON an evaluation's status needs.
type jobProgress struct {
	Status   JobStatus `json:"status"`
	Progress int64     `json:"progress"`
}

// tallyJobs counts an evaluation's jobs into t by their scalar status
// column, decoding nothing. Only running, failed and aborted jobs have a
// progress their JSON alone knows — every write into scheduled sets it to
// 0 and the one write into finished to 100 — so their data column is
// returned, to be decoded after the transaction and added then.
func (s *Store) tallyJobs(tx *relstore.Tx, evaluationID string, t *tally) (jsonRows[jobProgress], error) {
	rest := jsonRows[jobProgress]{table: tableJobs}
	err := tx.SelectFunc(tableJobs, relstore.NewQuery().Eq("evaluationId", evaluationID), func(row relstore.Row) bool {
		switch st := JobStatus(row["status"].(string)); st {
		case StatusScheduled:
			t.add(st, 0)
		case StatusFinished:
			t.add(st, 100)
		default:
			rest.data = append(rest.data, row["data"].([]byte))
		}
		return true
	})
	return rest, err
}

// --- Results ---

// PutResult stores a job result.
func (s *Store) PutResult(tx *relstore.Tx, r *Result) error {
	return putJSON(tx, tableResults, relstore.Row{"id": r.JobID}, r)
}

// GetResult loads the result of a job.
func (s *Store) GetResult(tx *relstore.Tx, jobID string) (*Result, error) {
	var r Result
	if err := getJSON(tx, tableResults, jobID, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// --- Logs ---

// AppendLog stores one log chunk for a job.
func (s *Store) AppendLog(tx *relstore.Tx, c *LogChunk) error {
	id := fmt.Sprintf("%s#%012d", c.JobID, c.Seq)
	row := relstore.Row{"id": id, "jobId": c.JobID, "seq": c.Seq}
	return putJSON(tx, tableLogs, row, c)
}

// ListLogs returns a job's log chunks in sequence order.
func (s *Store) ListLogs(tx *relstore.Tx, jobID string) (jsonRows[LogChunk], error) {
	// Chunk ids embed a zero-padded sequence number, so id order == seq
	// order, which the scan already guarantees.
	return selectRows[LogChunk](tx, tableLogs, relstore.NewQuery().Eq("jobId", jobID))
}

// --- Events ---

// PutEvent stores a timeline event. Events are all scalars — no JSON is
// marshalled on this path (it sits inside every claim and transition
// transaction).
func (s *Store) PutEvent(tx *relstore.Tx, e *Event) error {
	row := relstore.Row{
		"id":    e.ID,
		"jobId": e.JobID,
		"time":  e.Time,
		"kind":  string(e.Kind),
	}
	if e.Message != "" {
		row["message"] = e.Message
	}
	return tx.PutOwned(tableEvents, row)
}

// eventFromRow reconstructs an event from its scalar columns; rows
// persisted before the kind/message columns existed fall back to their
// JSON blob (they survive the upgrade route: see DeploymentClaimInfo).
func eventFromRow(row relstore.Row) (*Event, error) {
	k, ok := row["kind"]
	if !ok {
		var e Event
		if err := json.Unmarshal(row["data"].([]byte), &e); err != nil {
			return nil, fmt.Errorf("core: decode events row: %w", err)
		}
		return &e, nil
	}
	e := &Event{
		ID:    row["id"].(string),
		JobID: row["jobId"].(string),
		Kind:  EventKind(k.(string)),
		Time:  row["time"].(time.Time),
	}
	if m, ok := row["message"]; ok {
		e.Message = m.(string)
	}
	return e, nil
}

// ListEvents returns a job's events in id (creation) order.
func (s *Store) ListEvents(tx *relstore.Tx, jobID string) ([]*Event, error) {
	var out []*Event
	err := s.EachEvent(tx, jobID, func(e *Event) bool {
		out = append(out, e)
		return true
	})
	return out, err
}

// EachEvent streams a job's events in creation order.
func (s *Store) EachEvent(tx *relstore.Tx, jobID string, fn func(*Event) bool) error {
	var derr error
	err := tx.SelectFunc(tableEvents, relstore.NewQuery().Eq("jobId", jobID), func(row relstore.Row) bool {
		e, err := eventFromRow(row)
		if err != nil {
			derr = err
			return false
		}
		return fn(e)
	})
	if err != nil {
		return err
	}
	return derr
}

// nowUTC truncates to microseconds so timestamps survive JSON and WAL
// round-trips identically on all platforms.
func nowUTC(clock func() time.Time) time.Time {
	return clock().UTC().Truncate(time.Microsecond)
}
