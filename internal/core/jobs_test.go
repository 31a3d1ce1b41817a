package core

import (
	"encoding/json"
	"errors"
	"maps"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"chronos/internal/params"
	"chronos/internal/relstore"
)

func TestJobStateMachine(t *testing.T) {
	legal := []struct{ from, to JobStatus }{
		{StatusScheduled, StatusRunning},
		{StatusScheduled, StatusAborted},
		{StatusRunning, StatusFinished},
		{StatusRunning, StatusFailed},
		{StatusRunning, StatusAborted},
		{StatusRunning, StatusScheduled}, // ReleaseJob: handed back unrun
		{StatusFailed, StatusScheduled},
	}
	for _, c := range legal {
		if !CanTransition(c.from, c.to) {
			t.Errorf("%s -> %s should be legal", c.from, c.to)
		}
	}
	illegal := []struct{ from, to JobStatus }{
		{StatusScheduled, StatusFinished},
		{StatusScheduled, StatusFailed},
		{StatusFinished, StatusRunning},
		{StatusFinished, StatusScheduled},
		{StatusAborted, StatusScheduled},
		{StatusAborted, StatusRunning},
		{StatusFailed, StatusRunning},
		{StatusFailed, StatusFinished},
	}
	for _, c := range illegal {
		if CanTransition(c.from, c.to) {
			t.Errorf("%s -> %s should be illegal", c.from, c.to)
		}
	}
}

// TestJobStateMachineProperty: terminal states have no outgoing edges,
// and every reachable status is valid.
func TestJobStateMachineProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		statuses := []JobStatus{StatusScheduled, StatusRunning, StatusFinished, StatusAborted, StatusFailed}
		cur := StatusScheduled
		for i := 0; i < 50; i++ {
			next := statuses[r.Intn(len(statuses))]
			if CanTransition(cur, next) {
				if cur.Terminal() {
					return false // terminal state had an outgoing edge
				}
				cur = next
			}
		}
		return ValidJobStatus(cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClaimRunCompleteFlow(t *testing.T) {
	svc, _ := newTestService(t)
	_, _, depID, expID := registerDemo(t, svc)
	ev, jobs, err := svc.CreateEvaluation(expID)
	if err != nil {
		t.Fatal(err)
	}

	// Claim hands out the oldest job.
	j, ok, err := svc.ClaimJob(depID)
	if err != nil || !ok {
		t.Fatalf("claim: %v %v", ok, err)
	}
	if j.ID != jobs[0].ID {
		t.Fatalf("claimed %s, want oldest %s", j.ID, jobs[0].ID)
	}
	if j.Status != StatusRunning || j.Attempts != 1 || j.DeploymentID != depID {
		t.Fatalf("claimed job = %+v", j)
	}

	// Progress + logs stream in.
	if st, err := svc.Progress(j.ID, 40); err != nil || st != StatusRunning {
		t.Fatalf("progress: %v %v", st, err)
	}
	if err := svc.AppendJobLog(j.ID, "warmup done\n"); err != nil {
		t.Fatal(err)
	}
	if err := svc.AppendJobLog(j.ID, "executing...\n"); err != nil {
		t.Fatal(err)
	}
	logs, _ := svc.JobLogs(j.ID)
	if len(logs) != 2 || logs[0].Text != "warmup done\n" {
		t.Fatalf("logs = %+v", logs)
	}

	// Complete with a result.
	resJSON, _ := json.Marshal(map[string]float64{"throughput": 1234})
	if err := svc.CompleteJob(j.ID, resJSON, []byte("zipzip")); err != nil {
		t.Fatal(err)
	}
	got, _ := svc.GetJob(j.ID)
	if got.Status != StatusFinished || got.Progress != 100 {
		t.Fatalf("finished job = %+v", got)
	}
	res, err := svc.GetJobResult(j.ID)
	if err != nil || string(res.Archive) != "zipzip" {
		t.Fatalf("result = %+v, %v", res, err)
	}
	// Timeline: created, claimed, result, finished.
	tl, _ := svc.JobTimeline(j.ID)
	kinds := []EventKind{}
	for _, e := range tl {
		kinds = append(kinds, e.Kind)
	}
	want := []EventKind{EventCreated, EventClaimed, EventResult, EventFinished}
	if len(kinds) != len(want) {
		t.Fatalf("timeline kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("timeline kinds = %v, want %v", kinds, want)
		}
	}
	// Completing again violates the state machine.
	if err := svc.CompleteJob(j.ID, resJSON, nil); !errors.Is(err, ErrInvalidTransition) {
		t.Fatalf("double complete: %v", err)
	}
	// Status aggregation reflects the finish.
	st, _ := svc.EvaluationStatusOf(ev.ID)
	if st.Finished != 1 || st.Scheduled != 3 {
		t.Fatalf("status = %+v", st)
	}
}

func TestClaimAtomicityUnderConcurrency(t *testing.T) {
	svc, _ := newTestService(t)
	_, sysID, _, expID := registerDemo(t, svc)
	_, jobs, err := svc.CreateEvaluation(expID)
	if err != nil {
		t.Fatal(err)
	}
	// Several identical deployments race for the 4 jobs.
	var depIDs []string
	for i := 0; i < 8; i++ {
		d, err := svc.CreateDeployment(sysID, "racer", "sim", "1")
		if err != nil {
			t.Fatal(err)
		}
		depIDs = append(depIDs, d.ID)
	}
	var mu sync.Mutex
	claimed := map[string]string{} // jobID -> deploymentID
	var wg sync.WaitGroup
	for _, depID := range depIDs {
		wg.Add(1)
		go func(depID string) {
			defer wg.Done()
			for {
				j, ok, err := svc.ClaimJob(depID)
				if err != nil {
					t.Errorf("claim: %v", err)
					return
				}
				if !ok {
					return
				}
				mu.Lock()
				if prev, dup := claimed[j.ID]; dup {
					t.Errorf("job %s claimed twice: %s and %s", j.ID, prev, depID)
				}
				claimed[j.ID] = depID
				mu.Unlock()
			}
		}(depID)
	}
	wg.Wait()
	if len(claimed) != len(jobs) {
		t.Fatalf("claimed %d of %d jobs", len(claimed), len(jobs))
	}
}

func TestClaimRespectsDeploymentState(t *testing.T) {
	svc, _ := newTestService(t)
	_, _, depID, expID := registerDemo(t, svc)
	svc.CreateEvaluation(expID)

	if err := svc.SetDeploymentActive(depID, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.ClaimJob(depID); !errors.Is(err, ErrInactiveDeployment) {
		t.Fatalf("inactive claim: %v", err)
	}
	if _, _, err := svc.ClaimJob("deployment-000000404"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost claim: %v", err)
	}
	// A deployment of a different system gets no jobs.
	other, _ := svc.RegisterSystem("otherdb", "", nil, nil)
	otherDep, _ := svc.CreateDeployment(other.ID, "o", "", "")
	if _, ok, err := svc.ClaimJob(otherDep.ID); err != nil || ok {
		t.Fatalf("cross-system claim: %v %v", ok, err)
	}
}

func TestAbortScheduledAndRunning(t *testing.T) {
	svc, _ := newTestService(t)
	_, _, depID, expID := registerDemo(t, svc)
	_, jobs, _ := svc.CreateEvaluation(expID)

	// Abort a scheduled job.
	if err := svc.AbortJob(jobs[1].ID); err != nil {
		t.Fatal(err)
	}
	got, _ := svc.GetJob(jobs[1].ID)
	if got.Status != StatusAborted {
		t.Fatalf("status = %s", got.Status)
	}
	// Abort a running job; the agent sees it via Progress.
	j, _, _ := svc.ClaimJob(depID)
	if err := svc.AbortJob(j.ID); err != nil {
		t.Fatal(err)
	}
	st, err := svc.Progress(j.ID, 50)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusAborted {
		t.Fatalf("agent should observe abort, got %s", st)
	}
	// Progress after abort must not overwrite state.
	got, _ = svc.GetJob(j.ID)
	if got.Status != StatusAborted || got.Progress == 50 {
		t.Fatalf("aborted job mutated: %+v", got)
	}
	// Aborting a finished job is illegal.
	j2, _, _ := svc.ClaimJob(depID)
	svc.CompleteJob(j2.ID, []byte("{}"), nil)
	if err := svc.AbortJob(j2.ID); !errors.Is(err, ErrInvalidTransition) {
		t.Fatalf("abort finished: %v", err)
	}
}

func TestFailAutoReschedulesUntilBudget(t *testing.T) {
	svc, _ := newTestService(t)
	_, _, depID, expID := registerDemo(t, svc)
	svc.CreateEvaluation(expID)

	// MaxAttempts defaults to 3: two automatic reschedules, third failure
	// sticks.
	var jobID string
	for attempt := 1; attempt <= 3; attempt++ {
		j, ok, err := svc.ClaimJob(depID)
		if err != nil || !ok {
			t.Fatalf("claim attempt %d: %v %v", attempt, ok, err)
		}
		if jobID == "" {
			jobID = j.ID
		}
		if j.ID != jobID {
			t.Fatalf("expected the failed job to be retried first, got %s", j.ID)
		}
		if j.Attempts != int64(attempt) {
			t.Fatalf("attempts = %d, want %d", j.Attempts, attempt)
		}
		if err := svc.FailJob(j.ID, "simulated crash", ""); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := svc.GetJob(jobID)
	if got.Status != StatusFailed {
		t.Fatalf("after budget exhausted: %s", got.Status)
	}
	if got.Error != "simulated crash" {
		t.Fatalf("error = %q", got.Error)
	}
	// Manual reschedule still works and clears the error.
	if err := svc.RescheduleJob(jobID); err != nil {
		t.Fatal(err)
	}
	got, _ = svc.GetJob(jobID)
	if got.Status != StatusScheduled || got.Error != "" {
		t.Fatalf("rescheduled = %+v", got)
	}
	// Timeline contains failed and rescheduled events.
	tl, _ := svc.JobTimeline(jobID)
	var failures, reschedules int
	for _, e := range tl {
		switch e.Kind {
		case EventFailed:
			failures++
		case EventRescheduled:
			reschedules++
		}
	}
	if failures != 3 || reschedules != 3 { // 2 auto + 1 manual
		t.Fatalf("failures=%d reschedules=%d", failures, reschedules)
	}
}

func TestWatchdogFailsStaleJobs(t *testing.T) {
	svc, clock := newTestService(t)
	_, _, depID, expID := registerDemo(t, svc)
	svc.CreateEvaluation(expID)
	svc.HeartbeatTimeout = 30 * time.Second

	j, _, _ := svc.ClaimJob(depID)
	// Fresh heartbeat: nothing happens.
	failed, err := svc.CheckHeartbeats()
	if err != nil || len(failed) != 0 {
		t.Fatalf("premature failures: %v %v", failed, err)
	}
	// Time passes without heartbeats.
	clock.Advance(31 * time.Second)
	failed, err = svc.CheckHeartbeats()
	if err != nil || len(failed) != 1 || failed[0] != j.ID {
		t.Fatalf("failures = %v, %v", failed, err)
	}
	// Auto-reschedule applies: the job returns to the queue.
	got, _ := svc.GetJob(j.ID)
	if got.Status != StatusScheduled {
		t.Fatalf("post-watchdog status = %s", got.Status)
	}
	tl, _ := svc.JobTimeline(j.ID)
	sawLost := false
	for _, e := range tl {
		if e.Kind == EventHeartbeatLost {
			sawLost = true
		}
	}
	if !sawLost {
		t.Fatal("heartbeat-lost event missing")
	}
	// A live agent heartbeating keeps its job.
	j2, _, _ := svc.ClaimJob(depID)
	clock.Advance(20 * time.Second)
	if _, err := svc.Heartbeat(j2.ID); err != nil {
		t.Fatal(err)
	}
	clock.Advance(20 * time.Second)
	failed, _ = svc.CheckHeartbeats()
	for _, id := range failed {
		if id == j2.ID {
			t.Fatal("heartbeating job failed by watchdog")
		}
	}
}

func TestHeartbeatDoesNotResetProgress(t *testing.T) {
	svc, _ := newTestService(t)
	_, _, depID, expID := registerDemo(t, svc)
	svc.CreateEvaluation(expID)
	j, _, _ := svc.ClaimJob(depID)
	svc.Progress(j.ID, 70)
	if _, err := svc.Heartbeat(j.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := svc.GetJob(j.ID)
	if got.Progress != 70 {
		t.Fatalf("heartbeat reset progress to %d", got.Progress)
	}
}

func TestEvaluationStatusDone(t *testing.T) {
	svc, _ := newTestService(t)
	_, _, depID, expID := registerDemo(t, svc)
	ev, jobs, _ := svc.CreateEvaluation(expID)
	for range jobs {
		j, ok, err := svc.ClaimJob(depID)
		if err != nil || !ok {
			t.Fatalf("claim: %v %v", ok, err)
		}
		if err := svc.CompleteJob(j.ID, []byte(`{"throughput": 1}`), nil); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := svc.EvaluationStatusOf(ev.ID)
	if !st.Done() || st.Finished != len(jobs) || st.Progress != 100 {
		t.Fatalf("status = %+v", st)
	}
	if _, err := svc.EvaluationStatusOf("evaluation-000000404"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost evaluation: %v", err)
	}
}

func TestJobLabel(t *testing.T) {
	j := &Job{Index: 3}
	if j.Label() != "job 3" {
		t.Fatalf("label = %q", j.Label())
	}
}

// TestWatchdogScanThenFailRace pins down the race between the watchdog's
// stale scan and its fail transactions: a job that heartbeats (or
// finishes) after being scanned as stale must not be killed, because
// failJob re-checks the staleness precondition inside its own
// transaction.
func TestWatchdogScanThenFailRace(t *testing.T) {
	svc, clock := newTestService(t)
	_, _, depID, expID := registerDemo(t, svc)
	svc.CreateEvaluation(expID)
	svc.HeartbeatTimeout = 30 * time.Second

	j, _, _ := svc.ClaimJob(depID)
	clock.Advance(31 * time.Second)
	cutoff := svc.now().Add(-svc.HeartbeatTimeout)

	// The watchdog's scan would report j stale now...
	var stale []string
	svc.store.db.View(func(tx *relstore.Tx) error {
		return svc.store.EachStaleRunningJobID(tx, cutoff, func(id string) bool {
			stale = append(stale, id)
			return true
		})
	})
	if len(stale) != 1 || stale[0] != j.ID {
		t.Fatalf("stale scan = %v", stale)
	}
	// ...but the agent heartbeats between the scan and the fail.
	if _, err := svc.Heartbeat(j.ID); err != nil {
		t.Fatal(err)
	}
	err := svc.failJob(j.ID, "agent heartbeat lost", "", EventHeartbeatLost, func(j *Job) bool {
		return j.Status == StatusRunning && j.Heartbeat.Before(cutoff)
	})
	if !errors.Is(err, errPreconditionChanged) {
		t.Fatalf("guarded fail after heartbeat: %v", err)
	}
	got, _ := svc.GetJob(j.ID)
	if got.Status != StatusRunning {
		t.Fatalf("heartbeating job killed: %s", got.Status)
	}
	// Same race with a completion instead of a heartbeat: the guard sees
	// a non-running job and declines.
	clock.Advance(31 * time.Second)
	cutoff = svc.now().Add(-svc.HeartbeatTimeout)
	if err := svc.CompleteJob(j.ID, []byte(`{}`), nil); err != nil {
		t.Fatal(err)
	}
	err = svc.failJob(j.ID, "agent heartbeat lost", "", EventHeartbeatLost, func(j *Job) bool {
		return j.Status == StatusRunning && j.Heartbeat.Before(cutoff)
	})
	if !errors.Is(err, errPreconditionChanged) {
		t.Fatalf("guarded fail after completion: %v", err)
	}
	got, _ = svc.GetJob(j.ID)
	if got.Status != StatusFinished {
		t.Fatalf("finished job killed: %s", got.Status)
	}
	// CheckHeartbeats end to end still reports nothing for a fresh store.
	failed, err := svc.CheckHeartbeats()
	if err != nil || len(failed) != 0 {
		t.Fatalf("spurious failures: %v %v", failed, err)
	}
}

// TestWatchdogScalesWithStaleNotRunning sanity-checks the indexed stale
// scan: with many fresh running jobs and a handful of stale ones, only
// the stale ids surface, in id order.
func TestWatchdogScalesWithStaleNotRunning(t *testing.T) {
	svc, clock := newTestService(t)
	u, _ := svc.CreateUser("w", RoleAdmin)
	p, _ := svc.CreateProject("w", "", u.ID, nil)
	sys, _ := svc.RegisterSystem("sue", "", mongoParams(), nil)
	dep, _ := svc.CreateDeployment(sys.ID, "d", "", "")
	exp, _ := svc.CreateExperiment(p.ID, sys.ID, "e", "",
		map[string][]params.Value{
			"engine":  {params.String_("wiredtiger")},
			"threads": {params.Int(1), params.Int(2), params.Int(3), params.Int(4)},
		}, 0)
	svc.CreateEvaluation(exp.ID)
	svc.HeartbeatTimeout = 30 * time.Second

	// Claim 2 jobs that will go stale, then 2 that stay fresh.
	a, _, _ := svc.ClaimJob(dep.ID)
	b, _, _ := svc.ClaimJob(dep.ID)
	clock.Advance(31 * time.Second)
	svc.ClaimJob(dep.ID)
	svc.ClaimJob(dep.ID)

	failed, err := svc.CheckHeartbeats()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{a.ID: true, b.ID: true}
	if len(failed) != 2 || !want[failed[0]] || !want[failed[1]] {
		t.Fatalf("failed = %v, want exactly %v", failed, want)
	}
}

// staleIDs runs the watchdog's stale scan at cutoff on its own, without
// the re-check CheckHeartbeats makes before failing a job.
func staleIDs(svc *Service, cutoff time.Time) []string {
	var stale []string
	svc.store.db.View(func(tx *relstore.Tx) error {
		return svc.store.EachStaleRunningJobID(tx, cutoff, func(id string) bool {
			stale = append(stale, id)
			return true
		})
	})
	return stale
}

// TestWatchdogHeartbeatAtCutoffIsNotStale pins the stale scan's strict
// comparison: a heartbeat exactly HeartbeatTimeout old is still live, one
// microsecond (the service clock's resolution) older is lost.
func TestWatchdogHeartbeatAtCutoffIsNotStale(t *testing.T) {
	svc, clock := newTestService(t)
	_, _, depID, expID := registerDemo(t, svc)
	svc.CreateEvaluation(expID)
	svc.HeartbeatTimeout = 30 * time.Second

	j, _, _ := svc.ClaimJob(depID)
	clock.Advance(svc.HeartbeatTimeout)
	if stale := staleIDs(svc, svc.now().Add(-svc.HeartbeatTimeout)); len(stale) != 0 {
		t.Fatalf("stale scan at the cutoff = %v, want none", stale)
	}
	failed, err := svc.CheckHeartbeats()
	if err != nil || len(failed) != 0 {
		t.Fatalf("heartbeat at the cutoff failed: %v %v", failed, err)
	}
	if got, _ := svc.GetJob(j.ID); got.Status != StatusRunning {
		t.Fatalf("status = %s, want running", got.Status)
	}
	clock.Advance(time.Microsecond)
	failed, err = svc.CheckHeartbeats()
	if err != nil || len(failed) != 1 || failed[0] != j.ID {
		t.Fatalf("heartbeat past the cutoff: failed = %v, %v", failed, err)
	}
}

// TestWatchdogSkipsRunningRowWithoutHeartbeat checks that a running row
// whose heartbeat column is absent never counts as stale, however old.
func TestWatchdogSkipsRunningRowWithoutHeartbeat(t *testing.T) {
	svc, clock := newTestService(t)
	_, _, depID, expID := registerDemo(t, svc)
	svc.CreateEvaluation(expID)
	svc.HeartbeatTimeout = 30 * time.Second

	bare, _, _ := svc.ClaimJob(depID)
	beating, _, _ := svc.ClaimJob(depID)
	err := svc.store.db.Update(func(tx *relstore.Tx) error {
		row, err := tx.Get(tableJobs, bare.ID)
		if err != nil {
			return err
		}
		row = maps.Clone(row)
		delete(row, "heartbeat")
		return tx.Put(tableJobs, row)
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Hour)
	if stale := staleIDs(svc, svc.now().Add(-svc.HeartbeatTimeout)); len(stale) != 1 || stale[0] != beating.ID {
		t.Fatalf("stale scan = %v, want only %s", stale, beating.ID)
	}
	failed, err := svc.CheckHeartbeats()
	if err != nil || len(failed) != 1 || failed[0] != beating.ID {
		t.Fatalf("failed = %v, %v; want only %s", failed, err, beating.ID)
	}
	if got, _ := svc.GetJob(bare.ID); got.Status != StatusRunning {
		t.Fatalf("heartbeat-less job status = %s, want running", got.Status)
	}
}
