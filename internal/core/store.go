package core

import (
	"bytes"
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
// Reads that decode take their rows inside a View and decode them after
// it has returned (jsonTable's view and list, readRows): relstore never
// mutates a committed row, so the rows keep the View's cut, and decoding
// holds no store lock that an agent commit (or, on a follower, an apply)
// waits for.
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
			// Nullable as stores of this format were written.
			{Name: "parameters", Type: relstore.TBytes, Nullable: true},
			{Name: "data", Type: relstore.TBytes},
		}},
		{Name: tableDeployments, Key: "id", Columns: []relstore.Column{
			{Name: "id", Type: relstore.TString},
			{Name: "systemId", Type: relstore.TString, Indexed: true},
			{Name: "active", Type: relstore.TBool},
			// name mirrors Deployment.Name as a scalar so a claim stamps
			// its timeline event without decoding the deployment. Nullable
			// as stores of this format were written; every row carries it.
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
			// Nullable as stores of this format were written; every row
			// carries it.
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
			// a row while it holds its zero value. The watchdog's stale
			// scan, status=running AND heartbeat < cutoff, compares
			// heartbeat per running job; a job that stops running keeps
			// its last one.
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
			// row of this format carries it. A table's schema never changes,
			// so it stays declared, as on results and logs.
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
			// as stores of this format were written; message is absent
			// when empty.
			{Name: "kind", Type: relstore.TString, Nullable: true},
			{Name: "message", Type: relstore.TString, Nullable: true},
			{Name: "data", Type: relstore.TBytes, Nullable: true},
		}},
	}
}

// NewStore creates all tables on the given database. A store written by
// this format holds them already, and its open writes nothing; a store
// whose tables differ — one written before the column stores, say — is
// refused with relstore.ErrLegacyFormat before anything is written. A
// read-only replication follower's tables are not its to create: schema
// and rows arrive through WAL shipping, and until the leader's table
// creations have, reads of a missing table fail cleanly.
func NewStore(db *relstore.DB) (*Store, error) {
	s := &Store{db: db}
	if err := db.CreateTable(schemas()...); err != nil && !errors.Is(err, relstore.ErrReadOnly) {
		return nil, fmt.Errorf("core: create tables: %w", err)
	}
	return s, nil
}

// DB exposes the underlying store for transaction control.
func (s *Store) DB() *relstore.DB { return s.db }

// StorageStats reports the relstore-level counters — rows, live WAL
// segments and bytes, completed compaction cycles and the last
// background-compaction error — for operational surfaces (the control
// daemon logs them; tests assert on them).
func (s *Store) StorageStats() relstore.Stats { return s.db.Stats() }

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

// jsonTable is one of the six tables whose rows carry their entity as
// JSON in the data column, beside the scalar columns its queries and the
// agent path read: users, projects, systems, deployments, experiments and
// evaluations. Its methods are the one copy of their writes and reads.
// Readers take rows inside a View and decode them after it (view, list);
// a transaction that writes an entity back decodes it inside (get), and a
// check that needs only a row's existence or a scalar column reads the row
// (row) and decodes nothing.
type jsonTable[T any] struct {
	name   string
	prefix string // ids are prefix-000000001, prefix-000000002, …
	// cols is the scalar columns of v's row, key included.
	cols func(v *T) relstore.Row
}

var (
	users = jsonTable[User]{tableUsers, "user", func(u *User) relstore.Row {
		return relstore.Row{"id": u.ID, "name": u.Name}
	}}
	projects = jsonTable[Project]{tableProjects, "project", func(p *Project) relstore.Row {
		return relstore.Row{"id": p.ID, "archived": p.Archived}
	}}
	systems = jsonTable[System]{tableSystems, "system", func(sys *System) relstore.Row {
		row := relstore.Row{"id": sys.ID, "name": sys.Name}
		if len(sys.Parameters) > 0 {
			// put marshalled the system, parameters included, before it
			// asked for its columns: this marshal cannot fail.
			row["parameters"], _ = json.Marshal(sys.Parameters)
		}
		return row
	}}
	deployments = jsonTable[Deployment]{tableDeployments, "deployment", func(d *Deployment) relstore.Row {
		return relstore.Row{"id": d.ID, "systemId": d.SystemID, "active": d.Active, "name": d.Name}
	}}
	experiments = jsonTable[Experiment]{tableExperiments, "experiment", func(e *Experiment) relstore.Row {
		return relstore.Row{"id": e.ID, "projectId": e.ProjectID, "systemId": e.SystemID, "maxAttempts": int64(e.MaxAttempts)}
	}}
	evaluations = jsonTable[Evaluation]{tableEvaluations, "evaluation", func(ev *Evaluation) relstore.Row {
		return relstore.Row{"id": ev.ID, "experimentId": ev.ExperimentID}
	}}
)

// put writes v's row: its scalar columns and v as JSON in data. The row is
// built for this call, and Put keeps it as the stored row.
func (t jsonTable[T]) put(tx *relstore.Tx, v *T) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("core: marshal %s row: %w", t.name, err)
	}
	row := t.cols(v)
	row["data"] = data
	return tx.Put(t.name, row)
}

// row is the stored row with the given id, ErrNotFound when there is none.
func (t jsonTable[T]) row(tx *relstore.Tx, id string) (relstore.Row, error) {
	row, err := tx.Get(t.name, id)
	return row, mapNotFound(err)
}

// from builds the entity a row holds: the from of the table's rowsOf.
func (t jsonTable[T]) from(row relstore.Row, v *T) error {
	if err := json.Unmarshal(row["data"].([]byte), v); err != nil {
		return fmt.Errorf("core: decode %s row: %w", t.name, err)
	}
	return nil
}

// entity is the entity one row holds.
func (t jsonTable[T]) entity(row relstore.Row) (*T, error) {
	v := new(T)
	if err := t.from(row, v); err != nil {
		return nil, err
	}
	return v, nil
}

// get reads an entity inside tx, for a transaction that writes it back or
// needs more of it than its scalar columns.
func (t jsonTable[T]) get(tx *relstore.Tx, id string) (*T, error) {
	row, err := t.row(tx, id)
	if err != nil {
		return nil, err
	}
	return t.entity(row)
}

// view reads one entity: its row is taken in a View and decoded after it.
func (t jsonTable[T]) view(db *relstore.DB, id string) (*T, error) {
	var row relstore.Row
	err := db.View(func(tx *relstore.Tx) error {
		var err error
		row, err = t.row(tx, id)
		return err
	})
	if err != nil {
		return nil, err
	}
	return t.entity(row)
}

// list reads the entities whose indexed column col equals val, every one
// when val is empty, in key order: the rows are taken in a View and
// decoded after it.
func (t jsonTable[T]) list(db *relstore.DB, col, val string) ([]*T, error) {
	q := relstore.NewQuery()
	if val != "" {
		q = q.Eq(col, val)
	}
	return readRows(db, func(tx *relstore.Tx) (rowsOf[T], error) {
		return selectRows(tx, t.name, q, t.from)
	})
}

// nextID draws the table's next sequence number and the id it makes.
func (t jsonTable[T]) nextID(tx *relstore.Tx) (string, int64, error) {
	n, err := tx.NextSeq(t.name)
	if err != nil {
		return "", 0, err
	}
	return paddedID(t.prefix, n), n, nil
}

// create stores the entity build makes under the table's next id, in a
// transaction of its own: build runs the creation's checks inside it.
func (t jsonTable[T]) create(db *relstore.DB, build func(tx *relstore.Tx, id string) (*T, error)) (*T, error) {
	var v *T
	err := db.Update(func(tx *relstore.Tx) error {
		id, _, err := t.nextID(tx)
		if err != nil {
			return err
		}
		if v, err = build(tx, id); err != nil {
			return err
		}
		return t.put(tx, v)
	})
	return v, err
}

// update writes an entity back as change leaves it, in a transaction of
// its own.
func (t jsonTable[T]) update(db *relstore.DB, id string, change func(*T)) error {
	return db.Update(func(tx *relstore.Tx) error {
		v, err := t.get(tx, id)
		if err != nil {
			return err
		}
		change(v)
		return t.put(tx, v)
	})
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
	return users.entity(rows[0])
}

// systemParameters returns a system's parameter definitions as its put
// stored them: JSON, nil for a system that defines none.
func (s *Store) systemParameters(tx *relstore.Tx, id string) (json.RawMessage, error) {
	row, err := tx.Get(tableSystems, id)
	if err != nil {
		return nil, err
	}
	defs, _ := row["parameters"].([]byte)
	return defs, nil
}

// DeploymentClaimInfo returns the three deployment fields a claim reads —
// systemId, name, active — from the deployment's scalar columns, no JSON
// decoded: with agents polling for work, decoding the full deployment per
// claim dominated the transaction's allocations.
func (s *Store) DeploymentClaimInfo(tx *relstore.Tx, id string) (systemID, name string, active bool, err error) {
	row, err := tx.Get(tableDeployments, id)
	if err != nil {
		return "", "", false, err
	}
	name, _ = row["name"].(string)
	return row["systemId"].(string), name, row["active"].(bool), nil
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
	ev, err := tx.Get(tableEvaluations, evaluationID)
	if err != nil {
		if err == relstore.ErrNotFound {
			return 0, false, nil
		}
		return 0, false, err
	}
	exp, err := tx.Get(tableExperiments, ev["experimentId"].(string))
	if err != nil {
		if err == relstore.ErrNotFound {
			return 0, false, nil
		}
		return 0, false, err
	}
	budget, ok = exp["maxAttempts"].(int64)
	return budget, ok, nil
}

// --- Jobs ---

// jobRow is a job as its row holds it: every field a column, and Params
// the stored JSON bytes, undecoded. Every transition reads a jobRow and
// writes it back as a fresh row; job decodes the params for a reader or
// the wire.
type jobRow struct {
	Job    // Params unset
	params []byte
	// src is the row the job was read from, or for a new job the values
	// its evaluation boxed once for all its jobs (nil: none). A fresh row
	// takes over src's values of the columns it holds unchanged, so
	// writing a job boxes only what the transition set.
	src relstore.Row
}

// newJobRow is j as a jobRow taking shared's boxed values: its assignment
// encoded once, at creation.
func newJobRow(j *Job, shared relstore.Row) (*jobRow, error) {
	r := &jobRow{Job: *j, src: shared}
	r.Params = nil
	if j.Params != nil {
		var buf [256]byte
		b, err := j.Params.AppendJSON(buf[:0])
		if err != nil {
			return nil, fmt.Errorf("core: marshal job %s params: %w", j.ID, err)
		}
		r.params = bytes.Clone(b)
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
	// A scheduled job with no attempt spent fills at most 7 of the 14
	// columns: sized for 8, its map is one group instead of a table.
	n := 14
	if r.Status == StatusScheduled && r.Attempts == 0 {
		n = 8
	}
	row := make(relstore.Row, n)
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
	var zero T
	if v != zero {
		row[col] = boxed(src, col, v)
	}
}

// boxed is v as a column value: src's, when src holds the same one.
func boxed[T comparable](src relstore.Row, col string, v T) any {
	if old, ok := src[col].(T); ok && old == v {
		return src[col]
	}
	return v
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

// putJobRow writes r as the job's row.
func (s *Store) putJobRow(tx *relstore.Tx, r *jobRow) error {
	return tx.Put(tableJobs, r.row())
}

// readJob reads a job's columns, decoding nothing.
func (s *Store) readJob(tx *relstore.Tx, id string) (*jobRow, error) {
	row, err := tx.Get(tableJobs, id)
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
// planner can drive from the smaller posting list and check the other
// on its rows.
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
// is strictly before cutoff; a running row without a heartbeat is never
// stale. The status index drives and the cutoff is one scalar compare per
// running row — O(running), with no job JSON decoded at all.
func (s *Store) EachStaleRunningJobID(tx *relstore.Tx, cutoff time.Time, fn func(id string) bool) error {
	q := relstore.NewQuery().Eq("status", string(StatusRunning))
	return tx.SelectFunc(tableJobs, q, func(row relstore.Row) bool {
		if hb, ok := row["heartbeat"].(time.Time); ok && hb.Before(cutoff) {
			return fn(row["id"].(string))
		}
		return true
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
	return tx.Put(tableResults, row)
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
	row, err := tx.Get(tableResults, jobID)
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
	return tx.Put(tableLogs, row)
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

// PutEvent stores a timeline event, taking its time and kind from
// shared's boxed values where they are the same (shared may be nil).
// Events are all scalars — no JSON is marshalled on this path (it sits
// inside every claim and transition transaction).
func (s *Store) PutEvent(tx *relstore.Tx, e *Event, shared relstore.Row) error {
	row := relstore.Row{
		"id":    e.ID,
		"jobId": e.JobID,
		"time":  boxed(shared, "time", e.Time),
		"kind":  boxed(shared, "kind", string(e.Kind)),
	}
	setNonZero(row, "message", e.Message)
	return tx.Put(tableEvents, row)
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
