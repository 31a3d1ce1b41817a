package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"chronos/internal/relstore"
)

// Store maps the Chronos domain entities onto relstore tables. Jobs,
// results and log chunks are their columns: every field of a job is a
// scalar column of its own except the parameter assignment, which is JSON
// written once at creation; a result is its document, archive and upload
// time, a log chunk its text and time. So the agent's calls — claim,
// progress, complete, fail — read columns and write a fresh row, and
// decode no JSON but the claimed job's params, which the wire needs;
// JSON of a job is written only at the edge, from a Job a reader built
// from its columns. Events are all scalars too. The other entities carry
// the scalar columns their queries use plus the full entity as JSON,
// mirroring how the original Chronos Control keeps its MySQL schema thin
// and reconstructs rich objects in the application layer.
//
// Single-row reads build their entity inside the caller's transaction.
// Multi-row reads return rowsOf — the matching rows themselves — and the
// Service turns them into entities after its View has returned
// (readRows): relstore never mutates a committed row, so the rows keep
// the View's cut, and decoding holds no store lock that an agent commit
// (or, on a follower, an apply) waits for.
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

// schemas are the tables of a store of this format.
func schemas() []relstore.Schema {
	return []relstore.Schema{
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
			// parameters mirrors System.Parameters as JSON, absent for a
			// system that defines none: a claim answers the claimed job's
			// definitions as these bytes, decoding and encoding nothing.
			// Nullable also because the column was added by an in-place
			// upgrade (NewStore fills it in older stores' rows).
			{Name: "parameters", Type: relstore.TBytes, Nullable: true},
			{Name: "data", Type: relstore.TBytes},
		}},
		{Name: tableDeployments, Key: "id", Columns: []relstore.Column{
			{Name: "id", Type: relstore.TString},
			{Name: "systemId", Type: relstore.TString, Indexed: true},
			{Name: "active", Type: relstore.TBool},
			// name mirrors Deployment.Name as a scalar so a claim stamps
			// its timeline event without decoding the deployment. Nullable
			// because the column was added by an in-place upgrade; NewStore
			// fills it in the rows of a store written before it.
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
			// Every other field of a Job is a nullable column, left out of
			// a row while it holds its zero value (nullable, too, because a
			// store written before the column stores gains them by an
			// in-place upgrade). The watchdog's stale scan, status=running
			// AND heartbeat < cutoff, compares heartbeat per running job; a
			// job that stops running keeps its last one.
			{Name: "heartbeat", Type: relstore.TTime, Nullable: true},
			{Name: "index", Type: relstore.TInt, Nullable: true},
			// params is Job.Params as JSON, written at creation and carried
			// through every later write of the row untouched.
			{Name: "params", Type: relstore.TBytes, Nullable: true},
			{Name: "attempts", Type: relstore.TInt, Nullable: true},
			{Name: "progress", Type: relstore.TInt, Nullable: true},
			{Name: "deploymentId", Type: relstore.TString, Nullable: true},
			{Name: "error", Type: relstore.TString, Nullable: true},
			{Name: "started", Type: relstore.TTime, Nullable: true},
			{Name: "finished", Type: relstore.TTime, Nullable: true},
			// data held the whole job as JSON before the column stores; no
			// row carries it once NewStore has upgraded the table. relstore
			// drops no column, so it stays declared, as on results and logs.
			{Name: "data", Type: relstore.TBytes, Nullable: true},
		}},
		{Name: tableResults, Key: "id", Columns: []relstore.Column{
			{Name: "id", Type: relstore.TString}, // job id
			// json is absent for a nil document, archive when empty.
			{Name: "json", Type: relstore.TBytes, Nullable: true},
			{Name: "archive", Type: relstore.TBytes, Nullable: true},
			{Name: "uploaded", Type: relstore.TTime, Nullable: true},
			{Name: "data", Type: relstore.TBytes, Nullable: true},
		}},
		{Name: tableLogs, Key: "id", Columns: []relstore.Column{
			{Name: "id", Type: relstore.TString}, // jobId#seq
			{Name: "jobId", Type: relstore.TString, Indexed: true},
			{Name: "seq", Type: relstore.TInt},
			{Name: "text", Type: relstore.TString, Nullable: true},
			{Name: "time", Type: relstore.TTime, Nullable: true},
			{Name: "data", Type: relstore.TBytes, Nullable: true},
		}},
		{Name: tableEvents, Key: "id", Columns: []relstore.Column{
			{Name: "id", Type: relstore.TString},
			{Name: "jobId", Type: relstore.TString, Indexed: true},
			{Name: "time", Type: relstore.TTime},
			// kind/message carry the whole event as scalars: events are
			// tiny, write-heavy (one per job transition) and read rarely,
			// so the write path marshals no JSON at all. They are nullable
			// because an in-place upgrade added them (NewStore rewrote the
			// older rows, which carried the event in data); message is
			// absent when empty.
			{Name: "kind", Type: relstore.TString, Nullable: true},
			{Name: "message", Type: relstore.TString, Nullable: true},
			{Name: "data", Type: relstore.TBytes, Nullable: true},
		}},
	}
}

// NewStore creates all tables on the given database, upgrading in place
// the ones a store written by an older build holds. A read-only
// replication follower's are not its to create or upgrade: schema and
// rows arrive through WAL shipping — the leader's upgrade included — and
// until the leader's table creations have, reads of a missing table fail
// cleanly.
//
// A store written before the column stores holds jobs, results and log
// chunks as JSON. Its jobs table is what tells: its data column is
// required. Such a store is upgraded once, at its first open by a leader
// of this build (upgradeRows); a later open writes nothing.
func NewStore(db *relstore.DB) (*Store, error) {
	s := &Store{db: db}
	old, exists := db.Schema(tableJobs)
	legacy := exists && dataRequired(old)
	var jobs relstore.Schema
	for _, sc := range schemas() {
		if legacy && sc.Name == tableJobs {
			// The blob stays required until every row has its columns:
			// an open that stops midway leaves the signal for the next.
			jobs, sc = sc, withDataRequired(sc)
		}
		if err := db.CreateTable(sc); errors.Is(err, relstore.ErrReadOnly) {
			return s, nil
		} else if err != nil {
			return nil, fmt.Errorf("core: create table %s: %w", sc.Name, err)
		}
	}
	if legacy {
		if err := s.upgradeRows(jobs); err != nil {
			return nil, fmt.Errorf("core: upgrade a store written before the column stores: %w", err)
		}
	}
	return s, nil
}

// dataRequired reports whether a schema's data column must be present.
func dataRequired(sc relstore.Schema) bool {
	for _, c := range sc.Columns {
		if c.Name == "data" {
			return !c.Nullable
		}
	}
	return false
}

// withDataRequired returns sc with its data column required.
func withDataRequired(sc relstore.Schema) relstore.Schema {
	cols := make([]relstore.Column, len(sc.Columns))
	for i, c := range sc.Columns {
		if c.Name == "data" {
			c.Nullable = false
		}
		cols[i] = c
	}
	sc.Columns = cols
	return sc
}

// upgradeRows rewrites a store written before the column stores, from
// the JSON its rows carry: every job, result and log chunk gets its
// columns, every system its parameters column, and the deployments and
// events rows still older builds left without their scalar columns get
// them. It is three commits. The first writes the columns, and leaves
// each job its blob — the jobs table still requires it, which is what
// makes an open that stops here upgrade again, from the same blobs. The
// second installs the jobs schema, whose blob is optional: the step that
// ends the upgrade. The third writes each job again without its blob; an
// open that stops before it leaves the blobs unread until each job's next
// write.
func (s *Store) upgradeRows(jobs relstore.Schema) error {
	all := func(relstore.Row) bool { return true }
	has := func(col string) func(relstore.Row) bool {
		return func(row relstore.Row) bool { _, ok := row[col]; return ok }
	}
	lacks := func(col string) func(relstore.Row) bool {
		return func(row relstore.Row) bool { _, ok := row[col]; return !ok }
	}
	keepBlob := func(tx *relstore.Tx, j *Job) error {
		r, err := newJobRow(j)
		if err != nil {
			return err
		}
		row := r.row()
		if row["data"], err = json.Marshal(j); err != nil {
			return err
		}
		return tx.PutOwned(tableJobs, row)
	}
	err := s.db.Update(func(tx *relstore.Tx) error {
		if err := rewrite(tx, tableJobs, all, keepBlob); err != nil {
			return err
		}
		if err := rewrite(tx, tableResults, has("data"), s.PutResult); err != nil {
			return err
		}
		if err := rewrite(tx, tableLogs, has("data"), s.AppendLog); err != nil {
			return err
		}
		if err := rewrite(tx, tableSystems, all, s.PutSystem); err != nil {
			return err
		}
		if err := rewrite(tx, tableDeployments, lacks("name"), s.PutDeployment); err != nil {
			return err
		}
		return rewrite(tx, tableEvents, lacks("kind"), s.PutEvent)
	})
	if err != nil {
		return err
	}
	if err := s.db.CreateTable(jobs); err != nil {
		return err
	}
	return s.db.Update(func(tx *relstore.Tx) error {
		return rewrite(tx, tableJobs, has("data"), s.PutJob)
	})
}

// rewrite writes, through put, the entity the data column holds of every
// row of table that pick selects.
func rewrite[T any](tx *relstore.Tx, table string, pick func(relstore.Row) bool, put func(*relstore.Tx, *T) error) error {
	var picked []relstore.Row
	if err := tx.SelectFunc(table, nil, func(row relstore.Row) bool {
		if pick(row) {
			picked = append(picked, row)
		}
		return true
	}); err != nil {
		return err
	}
	for _, row := range picked {
		var v T
		if err := decodeJSON(table, row["data"].([]byte), &v); err != nil {
			return err
		}
		if err := put(tx, &v); err != nil {
			return err
		}
	}
	return nil
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
	v, err := tx.GetValue(table, id, "data")
	if err != nil {
		return err
	}
	return decodeJSON(table, v.([]byte), out)
}

// decodeJSON unmarshals one row's data column.
func decodeJSON(table string, data []byte, out any) error {
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("core: decode %s row: %w", table, err)
	}
	return nil
}

// setNonZero puts v in row[col] unless it is its type's zero value: an
// absent column reads back as exactly that.
func setNonZero[T comparable](row relstore.Row, col string, v T) {
	var zero T
	if v != zero {
		row[col] = v
	}
}

// rowsOf is every row a multi-row read matched, in key order, taken
// inside a transaction; from turns each into its entity after it.
type rowsOf[T any] struct {
	rows []relstore.Row
	from func(relstore.Row, *T) error
}

// selectRows takes every row matching q. It builds nothing: relstore's
// committed rows are immutable, so they stay valid — and still the
// transaction's cut — once it has ended.
func selectRows[T any](tx *relstore.Tx, table string, q *relstore.Query, from func(relstore.Row, *T) error) (rowsOf[T], error) {
	r := rowsOf[T]{from: from}
	err := tx.SelectFunc(table, q, func(row relstore.Row) bool {
		r.rows = append(r.rows, row)
		return true
	})
	return r, err
}

// build turns every row into its entity, outside any transaction. The
// entities share one backing array: one allocation for the lot, not one
// each.
func (r rowsOf[T]) build() ([]*T, error) {
	vals := make([]T, len(r.rows))
	out := make([]*T, len(r.rows))
	for i, row := range r.rows {
		if err := r.from(row, &vals[i]); err != nil {
			return nil, err
		}
		out[i] = &vals[i]
	}
	return out, nil
}

// fromData is the from of a table whose rows carry their entity as JSON
// in the data column.
func fromData[T any](table string) func(relstore.Row, *T) error {
	return func(row relstore.Row, v *T) error {
		return decodeJSON(table, row["data"].([]byte), v)
	}
}

// readRows runs read in a View and builds what it took once the View has
// returned: the store lock is held for the scan alone.
func readRows[T any](db *relstore.DB, read func(*relstore.Tx) (rowsOf[T], error)) ([]*T, error) {
	var rows rowsOf[T]
	err := db.View(func(tx *relstore.Tx) error {
		var err error
		rows, err = read(tx)
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows.build()
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
func (s *Store) ListUsers(tx *relstore.Tx) (rowsOf[User], error) {
	return selectRows(tx, tableUsers, relstore.NewQuery(), fromData[User](tableUsers))
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
func (s *Store) ListProjects(tx *relstore.Tx) (rowsOf[Project], error) {
	return selectRows(tx, tableProjects, relstore.NewQuery(), fromData[Project](tableProjects))
}

// --- Systems ---

// PutSystem stores a system.
func (s *Store) PutSystem(tx *relstore.Tx, sys *System) error {
	row := relstore.Row{"id": sys.ID, "name": sys.Name}
	if len(sys.Parameters) > 0 {
		defs, err := json.Marshal(sys.Parameters)
		if err != nil {
			return fmt.Errorf("core: marshal system %s parameters: %w", sys.ID, err)
		}
		row["parameters"] = defs
	}
	return putJSON(tx, tableSystems, row, sys)
}

// GetSystem loads a system by id.
func (s *Store) GetSystem(tx *relstore.Tx, id string) (*System, error) {
	var sys System
	if err := getJSON(tx, tableSystems, id, &sys); err != nil {
		return nil, err
	}
	return &sys, nil
}

// systemParameters returns a system's parameter definitions as PutSystem
// stored them: JSON, nil for a system that defines none.
func (s *Store) systemParameters(tx *relstore.Tx, id string) (json.RawMessage, error) {
	v, err := tx.GetValue(tableSystems, id, "parameters")
	if err != nil {
		return nil, err
	}
	defs, _ := v.([]byte)
	return defs, nil
}

// ListSystems returns all systems ordered by id.
func (s *Store) ListSystems(tx *relstore.Tx) (rowsOf[System], error) {
	return selectRows(tx, tableSystems, relstore.NewQuery(), fromData[System](tableSystems))
}

// --- Deployments ---

// PutDeployment stores a deployment.
func (s *Store) PutDeployment(tx *relstore.Tx, d *Deployment) error {
	row := relstore.Row{"id": d.ID, "systemId": d.SystemID, "active": d.Active, "name": d.Name}
	return putJSON(tx, tableDeployments, row, d)
}

// DeploymentClaimInfo returns the three deployment fields a claim reads —
// systemId, name, active — from the deployment's scalar columns, no JSON
// decoded: with agents polling for work, decoding the full deployment per
// claim dominated the transaction's allocations.
func (s *Store) DeploymentClaimInfo(tx *relstore.Tx, id string) (systemID, name string, active bool, err error) {
	row, err := tx.Peek(tableDeployments, id)
	if err != nil {
		return "", "", false, err
	}
	name, _ = row["name"].(string)
	return row["systemId"].(string), name, row["active"].(bool), nil
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
func (s *Store) ListDeployments(tx *relstore.Tx, systemID string) (rowsOf[Deployment], error) {
	q := relstore.NewQuery()
	if systemID != "" {
		q = q.Eq("systemId", systemID)
	}
	return selectRows(tx, tableDeployments, q, fromData[Deployment](tableDeployments))
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
func (s *Store) ListExperiments(tx *relstore.Tx, projectID string) (rowsOf[Experiment], error) {
	q := relstore.NewQuery()
	if projectID != "" {
		q = q.Eq("projectId", projectID)
	}
	return selectRows(tx, tableExperiments, q, fromData[Experiment](tableExperiments))
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
func (s *Store) ListEvaluations(tx *relstore.Tx, experimentID string) (rowsOf[Evaluation], error) {
	q := relstore.NewQuery()
	if experimentID != "" {
		q = q.Eq("experimentId", experimentID)
	}
	return selectRows(tx, tableEvaluations, q, fromData[Evaluation](tableEvaluations))
}

// --- Jobs ---

// jobRow is a job as its row holds it: every field a column, and Params
// the stored JSON bytes, undecoded. Every transition reads a jobRow and
// writes it back as a fresh row; job decodes the params for a reader or
// the wire.
type jobRow struct {
	Job    // Params unset
	params []byte
	// src is the row the job was read from (nil for a new job). A fresh
	// row takes over its values of the columns that did not change, so
	// writing a job boxes only what the transition set.
	src relstore.Row
}

// newJobRow is j as a jobRow: its assignment encoded once, at creation.
func newJobRow(j *Job) (*jobRow, error) {
	r := &jobRow{Job: *j}
	r.Params = nil
	if j.Params != nil {
		var err error
		if r.params, err = json.Marshal(j.Params); err != nil {
			return nil, fmt.Errorf("core: marshal job %s params: %w", j.ID, err)
		}
	}
	return r, nil
}

// jobFields sets every field of j but Params from row's columns — an
// absent column is its field's zero value — and returns the stored params.
func jobFields(row relstore.Row, j *Job) (params []byte) {
	j.ID = row["id"].(string)
	j.EvaluationID = row["evaluationId"].(string)
	j.SystemID = row["systemId"].(string)
	j.Status = JobStatus(row["status"].(string))
	j.Created = row["created"].(time.Time)
	j.Heartbeat, _ = row["heartbeat"].(time.Time)
	j.Index, _ = row["index"].(int64)
	j.Attempts, _ = row["attempts"].(int64)
	j.Progress, _ = row["progress"].(int64)
	j.DeploymentID, _ = row["deploymentId"].(string)
	j.Error, _ = row["error"].(string)
	j.Started, _ = row["started"].(time.Time)
	j.Finished, _ = row["finished"].(time.Time)
	params, _ = row["params"].([]byte)
	return params
}

// row is r as a fresh row, its stored params carried through.
func (r *jobRow) row() relstore.Row {
	row := make(relstore.Row, 14)
	setCol(row, r.src, "id", r.ID)
	setCol(row, r.src, "evaluationId", r.EvaluationID)
	setCol(row, r.src, "systemId", r.SystemID)
	setCol(row, r.src, "status", string(r.Status))
	setCol(row, r.src, "created", r.Created)
	setCol(row, r.src, "heartbeat", r.Heartbeat)
	setCol(row, r.src, "index", r.Index)
	if v, ok := r.src["params"]; ok {
		row["params"] = v
	} else if r.params != nil {
		row["params"] = r.params
	}
	setCol(row, r.src, "attempts", r.Attempts)
	setCol(row, r.src, "progress", r.Progress)
	setCol(row, r.src, "deploymentId", r.DeploymentID)
	setCol(row, r.src, "error", r.Error)
	setCol(row, r.src, "started", r.Started)
	setCol(row, r.src, "finished", r.Finished)
	return row
}

// setCol is setNonZero that takes src's value when src holds the same one.
func setCol[T comparable](row, src relstore.Row, col string, v T) {
	if old, ok := src[col].(T); ok && old == v {
		row[col] = src[col]
		return
	}
	setNonZero(row, col, v)
}

// job is r for a reader or the wire, its params decoded.
func (r *jobRow) job() (*Job, error) {
	if err := decodeParams(&r.Job, r.params); err != nil {
		return nil, err
	}
	return &r.Job, nil
}

// decodeParams sets j.Params from the stored bytes (nil: none).
func decodeParams(j *Job, params []byte) error {
	if params == nil {
		return nil
	}
	if err := json.Unmarshal(params, &j.Params); err != nil {
		return fmt.Errorf("core: decode job %s params: %w", j.ID, err)
	}
	return nil
}

// jobOf is the from of the jobs table: the job its columns hold.
func jobOf(row relstore.Row, j *Job) error {
	return decodeParams(j, jobFields(row, j))
}

// PutJob stores a new job.
func (s *Store) PutJob(tx *relstore.Tx, j *Job) error {
	r, err := newJobRow(j)
	if err != nil {
		return err
	}
	return s.putJobRow(tx, r)
}

// putJobRow writes r as the job's row.
func (s *Store) putJobRow(tx *relstore.Tx, r *jobRow) error {
	return tx.PutOwned(tableJobs, r.row())
}

// readJob reads a job's columns, decoding nothing.
func (s *Store) readJob(tx *relstore.Tx, id string) (*jobRow, error) {
	row, err := tx.Peek(tableJobs, id)
	if err != nil {
		return nil, err
	}
	r := &jobRow{src: row}
	r.params = jobFields(row, &r.Job)
	return r, nil
}

// ListJobsByEvaluation returns all jobs of an evaluation ordered by id.
func (s *Store) ListJobsByEvaluation(tx *relstore.Tx, evaluationID string) (rowsOf[Job], error) {
	return selectRows(tx, tableJobs, relstore.NewQuery().Eq("evaluationId", evaluationID), jobOf)
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

// firstJob returns the oldest (lowest-id, i.e. first-created) job with the
// given status, optionally restricted to a system. It is the scheduler's
// claim lookup: a Limit(1) indexed select that reads one row's columns.
// Returns (nil, nil) when no job matches.
func (s *Store) firstJob(tx *relstore.Tx, status JobStatus, systemID string) (*jobRow, error) {
	var r *jobRow
	err := tx.SelectFunc(tableJobs, jobsByStatusQuery(status, systemID).Limit(1), func(row relstore.Row) bool {
		r = &jobRow{src: row}
		r.params = jobFields(row, &r.Job)
		return false
	})
	return r, err
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

// tallyJobs counts an evaluation's jobs into t by their status and
// progress columns, decoding nothing.
func (s *Store) tallyJobs(tx *relstore.Tx, evaluationID string, t *tally) error {
	return tx.SelectFunc(tableJobs, relstore.NewQuery().Eq("evaluationId", evaluationID), func(row relstore.Row) bool {
		progress, _ := row["progress"].(int64)
		t.add(JobStatus(row["status"].(string)), progress)
		return true
	})
}

// --- Results ---

// PutResult stores a job result. The row keeps r.JSON and r.Archive as
// they are: the caller must not modify them afterwards.
func (s *Store) PutResult(tx *relstore.Tx, r *Result) error {
	row := relstore.Row{"id": r.JobID}
	if r.JSON != nil {
		row["json"] = r.JSON
	}
	if len(r.Archive) > 0 {
		row["archive"] = r.Archive
	}
	setNonZero(row, "uploaded", r.Uploaded)
	return tx.PutOwned(tableResults, row)
}

// resultOf is the result a results row's columns hold.
func resultOf(row relstore.Row, r *Result) {
	r.JobID = row["id"].(string)
	r.JSON, _ = row["json"].([]byte)
	r.Archive, _ = row["archive"].([]byte)
	r.Uploaded, _ = row["uploaded"].(time.Time)
}

// GetResult loads the result of a job.
func (s *Store) GetResult(tx *relstore.Tx, jobID string) (*Result, error) {
	row, err := tx.Peek(tableResults, jobID)
	if err != nil {
		return nil, err
	}
	var r Result
	resultOf(row, &r)
	return &r, nil
}

// --- Logs ---

// AppendLog stores one log chunk for a job.
func (s *Store) AppendLog(tx *relstore.Tx, c *LogChunk) error {
	id := fmt.Sprintf("%s#%012d", c.JobID, c.Seq)
	row := relstore.Row{"id": id, "jobId": c.JobID, "seq": c.Seq}
	setNonZero(row, "text", c.Text)
	setNonZero(row, "time", c.Time)
	return tx.PutOwned(tableLogs, row)
}

// logOf is the from of the logs table: the chunk its columns hold.
func logOf(row relstore.Row, c *LogChunk) error {
	c.JobID = row["jobId"].(string)
	c.Seq = row["seq"].(int64)
	c.Text, _ = row["text"].(string)
	c.Time, _ = row["time"].(time.Time)
	return nil
}

// ListLogs returns a job's log chunks in sequence order.
func (s *Store) ListLogs(tx *relstore.Tx, jobID string) (rowsOf[LogChunk], error) {
	// Chunk ids embed a zero-padded sequence number, so id order == seq
	// order, which the scan already guarantees.
	return selectRows(tx, tableLogs, relstore.NewQuery().Eq("jobId", jobID), logOf)
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
	setNonZero(row, "message", e.Message)
	return tx.PutOwned(tableEvents, row)
}

// eventFromRow is the event an events row's scalar columns hold.
func eventFromRow(row relstore.Row) *Event {
	e := &Event{
		ID:    row["id"].(string),
		JobID: row["jobId"].(string),
		Time:  row["time"].(time.Time),
	}
	k, _ := row["kind"].(string)
	e.Kind = EventKind(k)
	e.Message, _ = row["message"].(string)
	return e
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
	return tx.SelectFunc(tableEvents, relstore.NewQuery().Eq("jobId", jobID), func(row relstore.Row) bool {
		return fn(eventFromRow(row))
	})
}

// nowUTC truncates to microseconds so timestamps survive JSON and WAL
// round-trips identically on all platforms.
func nowUTC(clock func() time.Time) time.Time {
	return clock().UTC().Truncate(time.Microsecond)
}
