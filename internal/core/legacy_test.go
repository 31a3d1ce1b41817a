package core_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/params"
	"chronos/internal/relstore"
)

// TestNewStoreRefusesPreColumnsStore: a store written before the column
// stores holds jobs, results and log chunks as JSON blobs under other
// schemas. This build does not upgrade it: NewStore refuses it with
// relstore.ErrLegacyFormat before it writes anything, so the snapshot and
// segments are byte-identical afterwards (opening the store moves its
// generation's epoch, as every leader open does). In the second variant
// the store also lacks a table that schemas() lists ahead of the first
// differing one, and the refusal does not create it either.
func TestNewStoreRefusesPreColumnsStore(t *testing.T) {
	src, ids := legacySource(t)
	for _, missing := range []string{"", "projects"} {
		t.Run("missing="+missing, func(t *testing.T) {
			dir := t.TempDir()
			db, err := relstore.Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			writeBeforeColumns(t, db, src, ids, missing)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			before := dirContents(t, dir)

			db, err = relstore.Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.NewStore(db); !errors.Is(err, relstore.ErrLegacyFormat) {
				t.Fatalf("NewStore on a pre-columns store: %v, want ErrLegacyFormat", err)
			}
			if missing != "" && slices.Contains(db.Tables(), missing) {
				t.Fatalf("the refused open created table %s", missing)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if after := dirContents(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatal("the refused open changed the store's snapshot or segments")
			}
		})
	}
}

// dirContents reads every file in dir except the directory lock and the
// store generation.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string)
	for _, e := range entries {
		if e.Name() == "store.lock" || e.Name() == "store.gen" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// legacyIDs names what legacySource built.
type legacyIDs struct {
	project, nameless, blobEvents string
	evaluation                    string
	jobs                          []string
}

// legacySource builds, on a memory store of this build, the state the
// store written before the column stores holds: a job in each status,
// with results, logs and timelines.
func legacySource(t *testing.T) (*core.Service, legacyIDs) {
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
	_, _, err = svc.CompleteJobClaimNext(done.ID, []byte(`{"throughput":7}`), []byte("PK\x03\x04"), "done\n", "")
	must(err)
	failed := claim()
	must(svc.FailJobWithLog(failed.ID, "boom", "oops\n"))
	must(svc.AbortJob(claim().ID))
	half := int64(50)
	_, err = svc.UpdateJob(claim().ID, &half, "half way\n")
	must(err)
	ids := legacyIDs{project: p.ID, nameless: nameless.ID, blobEvents: done.ID, evaluation: ev.ID}
	for _, j := range jobs {
		ids.jobs = append(ids.jobs, j.ID)
	}
	return svc, ids
}

// writeBeforeColumns writes src's state in the format of the build before
// the column stores: its schemas, a JSON blob per job, result and log
// chunk, systems without a parameters column — and, in formats older
// still, the nameless deployment's row without a name and the blobEvents
// job's events as blobs — and leaves out the table named missing, if any.
// The sequences are advanced past every id.
func writeBeforeColumns(t *testing.T, db *relstore.DB, src *core.Service, ids legacyIDs, missing string) {
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
		if sc.Name == missing {
			continue
		}
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
			if table == missing {
				continue
			}
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
