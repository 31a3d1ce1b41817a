package integration

import (
	"testing"
	"time"

	"chronos/internal/core"
	"chronos/internal/params"
	"chronos/internal/relstore"
)

// TestSchedulerLifecycleAcrossRestarts drives one job through the full
// scheduler lifecycle — create experiment → claim → heartbeat/progress →
// complete — closing and reopening the durable store between every
// stage. Job states, attempt counts, progress and the auto-increment
// sequence counters must all survive each restart. The store runs with
// tiny WAL segments and aggressive compaction so the recovery being
// exercised is the segmented kind: every reopen replays a snapshot plus
// multiple segments, not one contiguous log.
func TestSchedulerLifecycleAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	storeOpts := &relstore.Options{SegmentBytes: 512, CompactEvery: 8}

	var db *relstore.DB
	open := func() *core.Service {
		t.Helper()
		var err error
		db, err = relstore.Open(dir, storeOpts)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		svc, err := core.NewService(db, nil)
		if err != nil {
			t.Fatalf("service after reopen: %v", err)
		}
		return svc
	}
	restart := func() *core.Service {
		t.Helper()
		if err := db.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		return open()
	}

	// Stage 1: full setup and evaluation creation.
	svc := open()
	u, err := svc.CreateUser("op", core.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := svc.CreateProject("restart", "", u.ID, nil)
	defs := []params.Definition{
		{Name: "n", Type: params.TypeInterval, Min: 1, Max: 100, Default: params.Int(1)},
	}
	sys, _ := svc.RegisterSystem("sue", "", defs, nil)
	dep, _ := svc.CreateDeployment(sys.ID, "d", "", "")
	exp, err := svc.CreateExperiment(p.ID, sys.ID, "e", "",
		map[string][]params.Value{"n": {params.Int(1), params.Int(2), params.Int(3)}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ev, jobs, err := svc.CreateEvaluation(exp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("expanded %d jobs, want 3", len(jobs))
	}

	// Restart: the scheduled queue must come back whole.
	svc = restart()
	st, err := svc.EvaluationStatusOf(ev.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scheduled != 3 || st.Total != 3 {
		t.Fatalf("after restart 1: %+v", st)
	}

	// Stage 2: claim.
	j, ok, err := svc.ClaimJob(dep.ID)
	if err != nil || !ok {
		t.Fatalf("claim: %v %v", ok, err)
	}
	if j.ID != jobs[0].ID {
		t.Fatalf("claimed %s, want oldest %s", j.ID, jobs[0].ID)
	}

	// Restart: the claim (running state, attempt count, deployment
	// binding, heartbeat) must survive.
	svc = restart()
	got, err := svc.GetJob(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != core.StatusRunning || got.Attempts != 1 || got.DeploymentID != dep.ID {
		t.Fatalf("after restart 2: %+v", got)
	}
	if got.Heartbeat.IsZero() {
		t.Fatal("heartbeat lost across restart")
	}

	// Stage 3: progress + heartbeat + a log chunk.
	if _, err := svc.Progress(j.ID, 60); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Heartbeat(j.ID); err != nil {
		t.Fatal(err)
	}
	if err := svc.AppendJobLog(j.ID, "halfway there"); err != nil {
		t.Fatal(err)
	}

	svc = restart()
	got, _ = svc.GetJob(j.ID)
	if got.Progress != 60 || got.Status != core.StatusRunning {
		t.Fatalf("after restart 3: %+v", got)
	}
	logs, err := svc.JobLogs(j.ID)
	if err != nil || len(logs) != 1 || logs[0].Text != "halfway there" {
		t.Fatalf("logs after restart: %v %v", logs, err)
	}
	// The restarted watchdog must not kill the job when its heartbeat is
	// fresh relative to the timeout.
	svc.HeartbeatTimeout = time.Hour
	if failed, err := svc.CheckHeartbeats(); err != nil || len(failed) != 0 {
		t.Fatalf("watchdog after restart: failed=%v err=%v", failed, err)
	}

	// Stage 4: complete with a result and the trailing log. They are one
	// WAL record, so a restart right after finds all of it or none: there
	// is no state in which a finished job lacks its last log lines.
	if _, _, err := svc.CompleteJobClaimNext(j.ID, []byte(`{"throughput": 42}`), nil, "done", ""); err != nil {
		t.Fatal(err)
	}

	svc = restart()
	got, _ = svc.GetJob(j.ID)
	if got.Status != core.StatusFinished || got.Progress != 100 {
		t.Fatalf("after restart 4: %+v", got)
	}
	logs, err = svc.JobLogs(j.ID)
	if err != nil || len(logs) != 2 || logs[1].Text != "done" || logs[1].Seq <= logs[0].Seq {
		t.Fatalf("logs after restart 4: %v %v", logs, err)
	}
	res, err := svc.GetJobResult(j.ID)
	if err != nil || len(res.JSON) == 0 {
		t.Fatalf("result after restart: %v %v", res, err)
	}
	tl, err := svc.JobTimeline(j.ID)
	if err != nil || len(tl) == 0 {
		t.Fatalf("timeline after restart: %v %v", tl, err)
	}

	// Sequence counters: new entities created after all the restarts must
	// continue the id sequences, never reuse one. A reused job id would
	// silently overwrite history.
	ev2, jobs2, err := svc.CreateEvaluation(exp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Number <= ev.Number {
		t.Fatalf("evaluation number regressed: %d after %d", ev2.Number, ev.Number)
	}
	seen := map[string]bool{}
	for _, old := range jobs {
		seen[old.ID] = true
	}
	for _, nj := range jobs2 {
		if seen[nj.ID] {
			t.Fatalf("job id %s reused after restarts", nj.ID)
		}
	}
	// The torture options really did exercise segmented recovery: the
	// history spans several segments (each reopen replayed them in
	// order), and compacting the recovered state works — after which one
	// more restart must still see everything.
	if stats := db.Stats(); stats.WALSegments < 2 {
		t.Fatalf("workload never spanned segments, stats=%+v", stats)
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("compacting recovered state: %v", err)
	}
	if stats := db.Stats(); stats.Snapshots != 1 || stats.WALSegments != 1 {
		t.Fatalf("after compaction: %+v", stats)
	}
	svc = restart()
	if got, err := svc.GetJob(j.ID); err != nil || got.Status != core.StatusFinished {
		t.Fatalf("after post-compaction restart: %+v %v", got, err)
	}
	db.Close()
}

// TestRestartDuringEvaluationResumesWork: a second agent session after a
// restart drains the remaining jobs — the queue is fully operational on
// recovered state.
func TestRestartDuringEvaluationResumesWork(t *testing.T) {
	dir := t.TempDir()
	opts := &relstore.Options{SegmentBytes: 512, CompactEvery: 8}
	db, err := relstore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.NewService(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := svc.CreateUser("op", core.RoleAdmin)
	p, _ := svc.CreateProject("resume", "", u.ID, nil)
	sys, _ := svc.RegisterSystem("sue", "", nil, nil)
	dep, _ := svc.CreateDeployment(sys.ID, "d", "", "")
	exp, _ := svc.CreateExperiment(p.ID, sys.ID, "e", "", nil, 0)
	ev, _, err := svc.CreateEvaluation(exp.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Claim and finish half the work, then "crash" the control (close).
	j, ok, err := svc.ClaimJob(dep.ID)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if err := svc.CompleteJob(j.ID, []byte(`{}`), nil); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := relstore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	svc2, err := core.NewService(db2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for {
		j, ok, err := svc2.ClaimJob(dep.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if err := svc2.CompleteJob(j.ID, []byte(`{}`), nil); err != nil {
			t.Fatal(err)
		}
	}
	st, err := svc2.EvaluationStatusOf(ev.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() || st.Finished != st.Total {
		t.Fatalf("evaluation not drained after restart: %+v", st)
	}
}
