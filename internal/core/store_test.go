package core

import (
	"errors"
	"testing"
	"time"

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
