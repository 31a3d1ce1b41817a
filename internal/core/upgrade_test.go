package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/internal/relstore/repl"
)

// TestNewStoreUpgradesOldJobsTable: a leader of this build opens a store
// written before the column stores while a follower replicates it. The
// store holds jobs in all five statuses as JSON blobs, their results and
// log chunks as blobs too, systems without a parameters column, a
// deployment without its name column and a job whose events are blobs.
// NewStore upgrades it in place: every read answers the JSON it answered
// before, on the leader and on the follower, which gets the rewrite
// through the WAL; no job, result, log or event row keeps a blob; a claim
// stamps the nameless deployment's name and answers the system's
// parameter definitions; and a second open commits nothing.
func TestNewStoreUpgradesOldJobsTable(t *testing.T) {
	src, ids := upgradeSource(t)
	want := upgradeReads(t, src, ids)

	dir := t.TempDir()
	db, err := relstore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	writeBeforeColumns(t, db, src, ids)
	leader := &leaderBox{db: db}
	srv := httptest.NewServer(leader)
	defer srv.Close()
	f, err := repl.Start(repl.Config{
		Dir: t.TempDir(), Leader: srv.URL,
		PollWait: 200 * time.Millisecond, RetryEvery: 20 * time.Millisecond,
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	caughtUp(t, f)

	// The leader restarts with this build.
	svc := leader.reopen(t, dir)
	compareReads(t, "leader", upgradeReads(t, svc, ids), want)
	noBlobs(t, "leader", leader.get())
	caughtUp(t, f)
	fsvc, err := core.NewService(f.DB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	compareReads(t, "follower", upgradeReads(t, fsvc, ids), want)
	noBlobs(t, "follower", f.DB())

	job, defs, err := svc.Claim(ids.nameless)
	if err != nil || job == nil {
		t.Fatalf("claim on the nameless deployment: %+v, %v", job, err)
	}
	sys, err := src.GetSystem(job.SystemID)
	if err != nil {
		t.Fatal(err)
	}
	if wantDefs, _ := json.Marshal(sys.Parameters); string(defs) != string(wantDefs) {
		t.Fatalf("claim answered parameters %s, want %s", defs, wantDefs)
	}
	timeline, err := svc.JobTimeline(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if last := timeline[len(timeline)-1]; last.Message != "claimed by local-2 ("+ids.nameless+")" {
		t.Fatalf("claim event = %+v", last)
	}

	// A second open finds nothing to upgrade and commits nothing.
	leader.reopen(t, dir)
	if pos, _, err := leader.get().ShipPosition(); err != nil || pos.Durable != 0 {
		t.Fatalf("second open wrote %d bytes (%v)", pos.Durable, err)
	}
}

// upgradeIDs names what upgradeSource built.
type upgradeIDs struct {
	project, nameless, blobEvents string
	evaluation                    string
	jobs                          []string
}

// upgradeSource builds, on a memory store of this build, the state the
// store written before the column stores holds: a job in each status,
// with results, logs and timelines.
func upgradeSource(t *testing.T) (*core.Service, upgradeIDs) {
	t.Helper()
	clock := metrics.NewManualClock(time.Date(2026, 2, 3, 4, 5, 6, 0, time.UTC))
	svc, err := core.NewService(relstore.OpenMemory(), clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	u, err := svc.CreateUser("ada", core.RoleAdmin)
	must(err)
	p, err := svc.CreateProject("upgrade", "", u.ID, nil)
	must(err)
	sys, err := svc.RegisterSystem("mongodb", "document store", []params.Definition{
		{Name: "engine", Description: "<storage> & engine", Type: params.TypeValue, ValueKind: params.KindString,
			Options: []string{"wiredtiger", "mmapv1"}, Default: params.String_("wiredtiger")},
		{Name: "threads", Type: params.TypeInterval, Min: 1, Max: 8, Step: 1, Default: params.Int(1)},
	}, nil)
	must(err)
	_, err = svc.RegisterSystem("bare", "", nil, nil)
	must(err)
	dep, err := svc.CreateDeployment(sys.ID, "local-1", "sim", "4.0")
	must(err)
	nameless, err := svc.CreateDeployment(sys.ID, "local-2", "sim", "4.0")
	must(err)
	exp, err := svc.CreateExperiment(p.ID, sys.ID, "e", "", map[string][]params.Value{
		"engine":  {params.String_("wiredtiger"), params.String_("mmapv1")},
		"threads": {params.Int(1), params.Int(2), params.Int(4)},
	}, 1)
	must(err)
	ev, jobs, err := svc.CreateEvaluation(exp.ID)
	must(err)
	claim := func() *core.Job {
		t.Helper()
		clock.Advance(time.Millisecond)
		j, ok, err := svc.ClaimJob(dep.ID)
		if err != nil || !ok {
			t.Fatalf("claim: %v %v", ok, err)
		}
		clock.Advance(time.Millisecond)
		return j
	}
	done := claim()
	must(svc.CompleteJobWithLog(done.ID, []byte(`{"throughput":7}`), []byte("PK\x03\x04"), "done\n"))
	failed := claim()
	must(svc.FailJobWithLog(failed.ID, "boom", "oops\n"))
	must(svc.AbortJob(claim().ID))
	half := int64(50)
	_, err = svc.UpdateJob(claim().ID, &half, "half way\n")
	must(err)
	ids := upgradeIDs{project: p.ID, nameless: nameless.ID, blobEvents: done.ID, evaluation: ev.ID}
	for _, j := range jobs {
		ids.jobs = append(ids.jobs, j.ID)
	}
	return svc, ids
}

// upgradeReads is every read of the state upgradeSource built, as the
// JSON (or, for the export, the zip) it answers.
func upgradeReads(t *testing.T, svc *core.Service, ids upgradeIDs) map[string]string {
	t.Helper()
	out := map[string]string{}
	put := func(key string, v any, err error) {
		if err != nil {
			out[key] = "error: " + err.Error()
			return
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out[key] = string(b)
	}
	for _, id := range ids.jobs {
		j, err := svc.GetJob(id)
		put("job "+id, j, err)
		r, err := svc.GetJobResult(id)
		put("result "+id, r, err)
		logs, err := svc.JobLogs(id)
		put("logs "+id, logs, err)
		events, err := svc.JobTimeline(id)
		put("timeline "+id, events, err)
	}
	jobs, err := svc.ListJobs(ids.evaluation)
	put("jobs", jobs, err)
	st, err := svc.EvaluationStatusOf(ids.evaluation)
	put("status", st, err)
	deps, err := svc.ListDeployments("")
	put("deployments", deps, err)
	systems, err := svc.ListSystems()
	put("systems", systems, err)
	zip, err := svc.ExportProject(ids.project)
	put("export", zip, err)
	return out
}

func compareReads(t *testing.T, who string, got, want map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s after the upgrade: %s is\n%s\nwant\n%s", who, k, got[k], want[k])
		}
	}
}

// writeBeforeColumns writes src's state in the format of the build before
// the column stores: its schemas, a JSON blob per job, result and log
// chunk, systems without a parameters column — and, in formats older
// still, the nameless deployment's row without a name and the blobEvents
// job's events as blobs. The sequences are advanced past every id.
func writeBeforeColumns(t *testing.T, db *relstore.DB, src *core.Service, ids upgradeIDs) {
	t.Helper()
	for _, sc := range []relstore.Schema{
		schema("users", "id string", "name string indexed", "data bytes"),
		schema("projects", "id string", "archived bool", "data bytes"),
		schema("systems", "id string", "name string indexed", "data bytes"),
		schema("deployments", "id string", "systemId string indexed", "active bool", "name string nullable", "data bytes"),
		schema("experiments", "id string", "projectId string indexed", "systemId string indexed", "maxAttempts int nullable", "data bytes"),
		schema("evaluations", "id string", "experimentId string indexed", "data bytes"),
		schema("jobs", "id string", "evaluationId string indexed", "systemId string indexed", "status string indexed",
			"created time", "heartbeat time nullable", "data bytes"),
		schema("results", "id string", "data bytes"),
		schema("logs", "id string", "jobId string indexed", "seq int", "data bytes"),
		schema("events", "id string", "jobId string indexed", "time time", "kind string nullable", "message string nullable", "data bytes nullable"),
	} {
		if err := db.CreateTable(sc); err != nil {
			t.Fatal(err)
		}
	}
	blob := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	rows := map[string][]relstore.Row{}
	err := src.Store().DB().View(func(tx *relstore.Tx) error {
		for _, table := range []string{"users", "projects", "systems", "deployments", "experiments", "evaluations"} {
			err := tx.SelectFunc(table, nil, func(row relstore.Row) bool {
				old := row.Clone()
				delete(old, "parameters")
				if old["id"] == ids.nameless {
					delete(old, "name")
				}
				rows[table] = append(rows[table], old)
				return true
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids.jobs {
		j, err := src.GetJob(id)
		if err != nil {
			t.Fatal(err)
		}
		row := relstore.Row{"id": j.ID, "evaluationId": j.EvaluationID, "systemId": j.SystemID,
			"status": string(j.Status), "created": j.Created, "data": blob(j)}
		if j.Status == core.StatusRunning {
			row["heartbeat"] = j.Heartbeat
		}
		rows["jobs"] = append(rows["jobs"], row)
		if r, err := src.GetJobResult(id); err == nil {
			rows["results"] = append(rows["results"], relstore.Row{"id": id, "data": blob(r)})
		}
		logs, err := src.JobLogs(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range logs {
			rows["logs"] = append(rows["logs"], relstore.Row{
				"id": fmt.Sprintf("%s#%012d", id, c.Seq), "jobId": id, "seq": c.Seq, "data": blob(c)})
		}
		events, err := src.JobTimeline(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			row := relstore.Row{"id": e.ID, "jobId": id, "time": e.Time}
			if id == ids.blobEvents {
				row["data"] = blob(e)
			} else {
				row["kind"] = string(e.Kind)
				if e.Message != "" {
					row["message"] = e.Message
				}
			}
			rows["events"] = append(rows["events"], row)
		}
	}
	err = db.Update(func(tx *relstore.Tx) error {
		for table, rs := range rows {
			for _, row := range rs {
				if err := tx.Put(table, row); err != nil {
					return err
				}
				if _, err := tx.NextSeq(table); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// schema declares a table keyed by id from "name type [indexed|nullable]"
// column specs.
func schema(name string, cols ...string) relstore.Schema {
	s := relstore.Schema{Name: name, Key: "id"}
	for _, spec := range cols {
		f := strings.Fields(spec)
		c := relstore.Column{Name: f[0], Type: relstore.ColType(f[1])}
		for _, flag := range f[2:] {
			c.Indexed = c.Indexed || flag == "indexed"
			c.Nullable = c.Nullable || flag == "nullable"
		}
		s.Columns = append(s.Columns, c)
	}
	return s
}

// noBlobs fails t if any job, result, log or event row still carries a
// data column, or a deployment lacks its name.
func noBlobs(t *testing.T, who string, db *relstore.DB) {
	t.Helper()
	err := db.View(func(tx *relstore.Tx) error {
		for _, table := range []string{"jobs", "results", "logs", "events", "deployments"} {
			err := tx.SelectFunc(table, nil, func(row relstore.Row) bool {
				if _, ok := row["data"]; ok && table != "deployments" {
					t.Errorf("%s: %s row %s keeps its blob", who, table, row["id"])
				}
				if _, ok := row["name"]; !ok && table == "deployments" {
					t.Errorf("%s: deployment %s has no name column", who, row["id"])
				}
				return true
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func caughtUp(t *testing.T, f *repl.Follower) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.WaitCaughtUp(ctx); err != nil {
		t.Fatalf("follower never caught up: %v (%+v)", err, f.Status())
	}
}

// leaderBox serves a leader store's ship protocol across restarts of the
// store under the same URL.
type leaderBox struct {
	mu sync.Mutex
	db *relstore.DB
}

func (l *leaderBox) get() *relstore.DB {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.db
}

// reopen closes the leader's store and opens it again with this build's
// Service, the way a restarted chronos-control does.
func (l *leaderBox) reopen(t *testing.T, dir string) *core.Service {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := relstore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	l.db = db
	svc, err := core.NewService(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func (l *leaderBox) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := repl.NewHandler(l.get())
	switch p := r.URL.Path; {
	case p == "/api/v2/repl/status":
		h.Status(w, r)
	case p == "/api/v2/repl/snapshot":
		h.Snapshot(w, r)
	case strings.HasPrefix(p, "/api/v2/repl/wal/"):
		r.SetPathValue("seq", strings.TrimPrefix(p, "/api/v2/repl/wal/"))
		h.WAL(w, r)
	default:
		http.NotFound(w, r)
	}
}
