package core

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"chronos/internal/metrics"
	"chronos/internal/relstore"
)

// TestStorePersistenceAcrossReopen: the complete entity graph written by
// the service survives a store restart — the same guarantee the original
// gets from MySQL.
func TestStorePersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := relstore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, depID, expID := registerDemo(t, svc)
	ev, jobs, err := svc.CreateEvaluation(expID)
	if err != nil {
		t.Fatal(err)
	}
	j, _, _ := svc.ClaimJob(depID)
	svc.AppendJobLog(j.ID, "persist me\n")
	svc.CompleteJob(j.ID, []byte(`{"throughput": 7}`), []byte("arch"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := relstore.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	svc2, err := NewService(db2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Everything is still there.
	st, err := svc2.EvaluationStatusOf(ev.ID)
	if err != nil || st.Total != len(jobs) || st.Finished != 1 {
		t.Fatalf("status after reopen: %+v, %v", st, err)
	}
	res, err := svc2.GetJobResult(j.ID)
	if err != nil || string(res.Archive) != "arch" {
		t.Fatalf("result after reopen: %+v, %v", res, err)
	}
	logs, err := svc2.JobLogs(j.ID)
	if err != nil || len(logs) != 1 || logs[0].Text != "persist me\n" {
		t.Fatalf("logs after reopen: %+v, %v", logs, err)
	}
	tl, err := svc2.JobTimeline(j.ID)
	if err != nil || len(tl) < 3 {
		t.Fatalf("timeline after reopen: %d events, %v", len(tl), err)
	}
	// Sequences continue: new jobs get fresh ids.
	_, jobs2, err := svc2.CreateEvaluation(expID)
	if err != nil {
		t.Fatal(err)
	}
	if jobs2[0].ID == jobs[0].ID {
		t.Fatal("job id sequence restarted after reopen")
	}
}

func TestFindUserByName(t *testing.T) {
	svc, _ := newTestService(t)
	u, _ := svc.CreateUser("findme", RoleMember)
	err := svc.Store().DB().View(func(tx *relstore.Tx) error {
		got, err := svc.Store().FindUserByName(tx, "findme")
		if err != nil {
			return err
		}
		if got.ID != u.ID {
			t.Errorf("found %s, want %s", got.ID, u.ID)
		}
		if _, err := svc.Store().FindUserByName(tx, "ghost"); !errors.Is(err, relstore.ErrNotFound) {
			t.Errorf("ghost lookup: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSetSystemSource(t *testing.T) {
	svc, _ := newTestService(t)
	sys, _ := svc.RegisterSystem("s", "", nil, nil)
	if err := svc.SetSystemSource(sys.ID, "repo@v2"); err != nil {
		t.Fatal(err)
	}
	got, _ := svc.GetSystem(sys.ID)
	if got.Source != "repo@v2" {
		t.Fatalf("source = %q", got.Source)
	}
	if err := svc.SetSystemSource("system-000000404", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost system: %v", err)
	}
}

func TestTimestampsAreUTCAndTruncated(t *testing.T) {
	svc, clock := newTestService(t)
	_ = clock
	u, _ := svc.CreateUser("tz", RoleMember)
	if u.Created.Location() != time.UTC {
		t.Fatalf("created in %v, want UTC", u.Created.Location())
	}
	if u.Created.Nanosecond()%1000 != 0 {
		t.Fatalf("created not truncated to microseconds: %v", u.Created)
	}
}

// TestNewStoreUpgradesOldJobsTable simulates a store whose jobs table
// predates the scalar heartbeat column: NewStore must upgrade the schema
// in place — the old row survives, and the new column is live, so a job
// written through it is found by the watchdog's stale scan.
func TestNewStoreUpgradesOldJobsTable(t *testing.T) {
	db := relstore.OpenMemory()
	oldJobs := relstore.Schema{Name: "jobs", Key: "id", Columns: []relstore.Column{
		{Name: "id", Type: relstore.TString},
		{Name: "evaluationId", Type: relstore.TString, Indexed: true},
		{Name: "systemId", Type: relstore.TString, Indexed: true},
		{Name: "status", Type: relstore.TString, Indexed: true},
		{Name: "created", Type: relstore.TTime},
		{Name: "data", Type: relstore.TBytes},
	}}
	if err := db.CreateTable(oldJobs); err != nil {
		t.Fatal(err)
	}
	stale := time.Date(2020, 3, 30, 9, 0, 0, 0, time.UTC)
	j := &Job{
		ID: "job-000000001", EvaluationID: "evaluation-000000001", SystemID: "system-000000001",
		Status: StatusScheduled, Created: stale,
	}
	data, _ := json.Marshal(j)
	err := db.Update(func(tx *relstore.Tx) error {
		return tx.Put("jobs", relstore.Row{
			"id": j.ID, "evaluationId": j.EvaluationID, "systemId": j.SystemID,
			"status": string(j.Status), "created": j.Created, "data": data,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	clock := metrics.NewManualClock(stale.Add(time.Hour))
	svc, err := NewService(db, clock.Now)
	if err != nil {
		t.Fatalf("NewService over old-schema store: %v", err)
	}
	got, err := svc.GetJob(j.ID)
	if err != nil || got.Status != StatusScheduled {
		t.Fatalf("pre-upgrade row after the upgrade: %+v, %v", got, err)
	}
	got.Status, got.Started, got.Heartbeat, got.Attempts = StatusRunning, stale, stale, 1
	if err := db.Update(func(tx *relstore.Tx) error { return svc.store.PutJob(tx, got) }); err != nil {
		t.Fatal(err)
	}
	failed, err := svc.CheckHeartbeats()
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0] != j.ID {
		t.Fatalf("watchdog missed a stale job on the upgraded table: %v", failed)
	}
}

// TestHeartbeatColumnOnlyWhileRunning: the scalar heartbeat column must
// exist exactly while the job runs — scheduled and terminal rows leave
// it out, so the history that accumulates stays one column narrower.
func TestHeartbeatColumnOnlyWhileRunning(t *testing.T) {
	db := relstore.OpenMemory()
	svc, err := NewService(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := svc.CreateUser("w", RoleAdmin)
	p, _ := svc.CreateProject("w", "", u.ID, nil)
	sys, _ := svc.RegisterSystem("sue", "", mongoParams(), nil)
	dep, _ := svc.CreateDeployment(sys.ID, "d", "", "")
	exp, _ := svc.CreateExperiment(p.ID, sys.ID, "e", "", nil, 0)
	_, jobs, err := svc.CreateEvaluation(exp.ID)
	if err != nil || len(jobs) == 0 {
		t.Fatal(err)
	}
	hasHB := func(id string) bool {
		var ok bool
		db.View(func(tx *relstore.Tx) error {
			row, err := tx.Get("jobs", id)
			if err != nil {
				t.Fatal(err)
			}
			_, ok = row["heartbeat"]
			return nil
		})
		return ok
	}
	id := jobs[0].ID
	if hasHB(id) {
		t.Fatal("scheduled job carries a heartbeat column")
	}
	if _, ok, err := svc.ClaimJob(dep.ID); err != nil || !ok {
		t.Fatal(ok, err)
	}
	if !hasHB(id) {
		t.Fatal("running job missing the heartbeat column")
	}
	if err := svc.CompleteJob(id, []byte(`{}`), nil); err != nil {
		t.Fatal(err)
	}
	if hasHB(id) {
		t.Fatal("finished job still carries a heartbeat column")
	}
}
