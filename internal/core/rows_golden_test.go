package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"chronos/internal/metrics"
	"chronos/internal/params"
	"chronos/internal/relstore"
)

var update = flag.Bool("update", false, "rewrite testdata/entity_rows.golden from this run")

// entityTables are the tables whose rows carry their entity as JSON in the
// data column beside a few scalar query columns.
var entityTables = []string{tableUsers, tableProjects, tableSystems, tableDeployments, tableExperiments, tableEvaluations}

// dumpEntityRows renders every column of every row of the entity tables,
// one row a line in key order, columns by name: a []byte column (data,
// parameters) is quoted byte for byte.
func dumpEntityRows(t *testing.T, db *relstore.DB) string {
	t.Helper()
	var b strings.Builder
	err := db.View(func(tx *relstore.Tx) error {
		for _, table := range entityTables {
			err := tx.SelectFunc(table, relstore.NewQuery(), func(row relstore.Row) bool {
				cols := make([]string, 0, len(row))
				for c := range row {
					cols = append(cols, c)
				}
				slices.Sort(cols)
				b.WriteString(table)
				for _, c := range cols {
					b.WriteString(" " + c + "=")
					switch v := row[c].(type) {
					case []byte:
						fmt.Fprintf(&b, "%q", v)
					case string:
						fmt.Fprintf(&b, "%q", v)
					case time.Time:
						b.WriteString(v.Format(time.RFC3339Nano))
					default:
						fmt.Fprintf(&b, "%T(%v)", v, v)
					}
				}
				b.WriteString("\n")
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
	return b.String()
}

// TestEntityRowsMatchGolden pins the stored bytes of the six JSON-row
// entity kinds: every column of every row the Service writes — creations
// and the read-modify-write updates alike — equals the golden, before and
// after the durable store is reopened.
func TestEntityRowsMatchGolden(t *testing.T) {
	dir := t.TempDir()
	db, err := relstore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	clock := metrics.NewManualClock(time.Date(2020, 3, 30, 9, 0, 0, 123456789, time.UTC))
	svc, err := NewService(db, clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		clock.Advance(1500 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
	}
	owner, err := svc.CreateUser("ada", RoleAdmin)
	must(err)
	member, err := svc.CreateUser("grace <g&h>", RoleMember)
	must(err)
	late, err := svc.CreateUser("linus", RoleViewer)
	must(err)
	p, err := svc.CreateProject("engines", "storage \"engine\" comparison", owner.ID, []string{member.ID})
	must(err)
	must(svc.AddProjectMember(p.ID, late.ID))
	must(svc.AddProjectMember(p.ID, late.ID)) // already a member: no write
	gone, err := svc.CreateProject("retired", "", owner.ID, nil)
	must(err)
	must(svc.ArchiveProject(gone.ID))
	sys, err := svc.RegisterSystem("mongodb", "document store", mongoParams(), []DiagramSpec{
		{Type: "line", Title: "Throughput", Metric: "throughput", XParam: "threads", SeriesParam: "engine"},
	})
	must(err)
	bare, err := svc.RegisterSystem("bare", "", nil, nil)
	must(err)
	dep, err := svc.CreateDeployment(sys.ID, "local-1", "sim", "4.0")
	must(err)
	off, err := svc.CreateDeployment(bare.ID, "idle", "", "")
	must(err)
	must(svc.SetDeploymentActive(off.ID, false))
	must(svc.SetDeploymentActive(dep.ID, true))
	exp, err := svc.CreateExperiment(p.ID, sys.ID, "engines-vs-threads", "sweep",
		map[string][]params.Value{
			"engine":  {params.String_("wiredtiger"), params.String_("mmapv1")},
			"threads": {params.Int(1), params.Int(2)},
		}, 0)
	must(err)
	frozen, err := svc.CreateExperiment(p.ID, bare.ID, "frozen", "", nil, 5)
	must(err)
	must(svc.ArchiveExperiment(frozen.ID))
	_, _, err = svc.CreateEvaluation(exp.ID)
	must(err)
	_, _, err = svc.CreateEvaluation(exp.ID)
	must(err)

	golden := filepath.Join("testdata", "entity_rows.golden")
	got := dumpEntityRows(t, db)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("entity rows differ from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = relstore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := NewService(db, clock.Now); err != nil {
		t.Fatal(err)
	}
	if got := dumpEntityRows(t, db); got != string(want) {
		t.Fatalf("entity rows after reopen differ from %s:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}
