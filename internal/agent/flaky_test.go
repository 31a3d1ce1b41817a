package agent

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos/internal/core"
	"chronos/internal/params"
	"chronos/pkg/client"
)

// flakyControl wraps a Control and fails every other progress/log call —
// the kind of transient network trouble a long-running evaluation must
// survive (requirement iii).
type flakyControl struct {
	Control
	calls atomic.Int64
}

func (f *flakyControl) Progress(jobID string, percent int64) (core.JobStatus, error) {
	if f.calls.Add(1)%2 == 0 {
		return "", context.DeadlineExceeded
	}
	return f.Control.Progress(jobID, percent)
}

func (f *flakyControl) AppendLog(jobID, text string) error {
	if f.calls.Add(1)%2 == 0 {
		return context.DeadlineExceeded
	}
	return f.Control.AppendLog(jobID, text)
}

func TestAgentSurvivesTransientControlErrors(t *testing.T) {
	svc, depID := setupJobs(t, 2)
	c, _ := restControl(t, svc, "")
	a := &Agent{
		Control:        &flakyControl{Control: c},
		DeploymentID:   depID,
		Factory:        func() Runner { return &testRunner{slow: 30 * time.Millisecond} },
		PollInterval:   5 * time.Millisecond,
		ReportInterval: 5 * time.Millisecond,
	}
	n, err := a.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("drained %d", n)
	}
	evs, _ := svc.ListEvaluations("")
	jobs, _ := svc.ListJobs(evs[0].ID)
	for _, j := range jobs {
		if j.Status != core.StatusFinished {
			t.Fatalf("job %s = %s (%s)", j.ID, j.Status, j.Error)
		}
	}
}

// claimErrControl fails claims, which must surface (unlike reporting
// noise, a broken claim path means the agent cannot work at all).
type claimErrControl struct{ Control }

func (c claimErrControl) ClaimJob(string) (*core.Job, []params.Definition, error) {
	return nil, nil, context.DeadlineExceeded
}

func TestAgentSurfacesClaimErrors(t *testing.T) {
	svc, depID := setupJobs(t, 1)
	c, _ := restControl(t, svc, "")
	a := &Agent{
		Control:      claimErrControl{c},
		DeploymentID: depID,
		Factory:      func() Runner { return &testRunner{} },
	}
	if _, err := a.RunOnce(context.Background()); err == nil {
		t.Fatal("claim error swallowed")
	}
}

// flakyClaimControl injects claim-path faults: the first failBefore
// claims answer with errs (cycled), as a leader that is restarting or
// cut off answers ErrUnavailable.
// Claims after that pass through. Each successful claim is recorded so
// the test can prove no job was handed out twice.
type flakyClaimControl struct {
	Control
	errs       []error
	failBefore int64
	calls      atomic.Int64
	claimed    sync.Map // job id -> claim count
}

func (f *flakyClaimControl) ClaimJob(depID string) (*core.Job, []params.Definition, error) {
	n := f.calls.Add(1)
	if n <= f.failBefore {
		return nil, nil, f.errs[(n-1)%int64(len(f.errs))]
	}
	job, defs, err := f.Control.ClaimJob(depID)
	if job != nil {
		v, _ := f.claimed.LoadOrStore(job.ID, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
	}
	return job, defs, err
}

// TestAgentRidesOutClaimFaults pins the fleet-survival contract from the
// agent side: ErrUnavailable (leader restarting or cut off) and ErrStale
// (superseded session token after a leader epoch bump) on the claim path
// make the agent retry — and once claims
// heal, every job runs exactly once. The double-run check matters: a
// retried claim must never yield the same job to this agent twice.
func TestAgentRidesOutClaimFaults(t *testing.T) {
	svc, depID := setupJobs(t, 3)
	c, _ := restControl(t, svc, "")
	fc := &flakyClaimControl{
		Control:    c,
		errs:       []error{client.ErrUnavailable, client.ErrStale, client.ErrUnavailable},
		failBefore: 5,
	}
	a := &Agent{
		Control:        fc,
		DeploymentID:   depID,
		Factory:        func() Runner { return &testRunner{} },
		PollInterval:   time.Millisecond,
		ReportInterval: time.Millisecond,
	}
	n, err := a.Drain(context.Background())
	if err != nil {
		t.Fatalf("drain did not survive transient claim faults: %v", err)
	}
	if n != 3 {
		t.Fatalf("drained %d jobs, want 3", n)
	}
	fc.claimed.Range(func(id, v any) bool {
		if c := v.(*atomic.Int64).Load(); c != 1 {
			t.Errorf("job %s claimed %d times, want exactly once", id, c)
		}
		return true
	})
	evs, _ := svc.ListEvaluations("")
	jobs, _ := svc.ListJobs(evs[0].ID)
	for _, j := range jobs {
		if j.Status != core.StatusFinished || j.Attempts != 1 {
			t.Fatalf("job %s = %s after %d attempts (%s)", j.ID, j.Status, j.Attempts, j.Error)
		}
	}
}

// TestAgentClaimRetryBudgetExhausts pins the other side: a claim path
// that never heals surfaces the error after ClaimRetries consecutive
// failures instead of spinning forever.
func TestAgentClaimRetryBudgetExhausts(t *testing.T) {
	svc, depID := setupJobs(t, 1)
	c, _ := restControl(t, svc, "")
	fc := &flakyClaimControl{
		Control:    c,
		errs:       []error{client.ErrUnavailable},
		failBefore: 1 << 30,
	}
	a := &Agent{
		Control:      fc,
		DeploymentID: depID,
		Factory:      func() Runner { return &testRunner{} },
		PollInterval: time.Millisecond,
		ClaimRetries: 3,
	}
	if _, err := a.Drain(context.Background()); err == nil {
		t.Fatal("permanently broken claim path did not surface")
	}
	if got := fc.calls.Load(); got != 4 { // the failing attempt + 3 retries
		t.Fatalf("control saw %d claim attempts, want 4", got)
	}
	// Fail-fast opt-out: negative retries surface the first error.
	fc.calls.Store(0)
	a.ClaimRetries = -1
	if _, err := a.Drain(context.Background()); err == nil {
		t.Fatal("fail-fast agent did not surface the claim error")
	}
	if got := fc.calls.Load(); got != 1 {
		t.Fatalf("fail-fast control saw %d claim attempts, want 1", got)
	}
}
