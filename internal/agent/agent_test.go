package agent

import (
	"archive/zip"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/params"
	"chronos/internal/relstore"
)

// testRunner is a configurable Runner for the agent tests.
type testRunner struct {
	prepareErr error
	executeErr error
	panicIn    string
	slow       time.Duration
	slowIn     string // the one phase slow applies to; empty: every phase
	stop       func() // called on entering Execute, when set
	result     map[string]any
	phases     []string
}

func (r *testRunner) phase(rc *RunContext, name string) error {
	r.phases = append(r.phases, name)
	rc.Logf("phase %s", name)
	if r.panicIn == name {
		panic("deliberate panic in " + name)
	}
	if r.slow > 0 && (r.slowIn == "" || r.slowIn == name) {
		select {
		case <-rc.Context().Done():
			return rc.Err()
		case <-time.After(r.slow):
		}
	}
	return nil
}

func (r *testRunner) Prepare(rc *RunContext) error {
	if err := r.phase(rc, PhasePrepare); err != nil {
		return err
	}
	return r.prepareErr
}
func (r *testRunner) WarmUp(rc *RunContext) error { return r.phase(rc, PhaseWarmUp) }
func (r *testRunner) Execute(rc *RunContext) error {
	rc.SetProgress(50)
	if r.stop != nil {
		r.stop()
	}
	if err := r.phase(rc, PhaseExecute); err != nil {
		return err
	}
	return r.executeErr
}
func (r *testRunner) Analyze(rc *RunContext) (map[string]any, error) {
	r.phase(rc, PhaseAnalyze)
	rc.AttachFile("raw.csv", []byte("a,b\n1,2\n"))
	if r.result != nil {
		return r.result, nil
	}
	return map[string]any{"throughput": 123.0}, nil
}
func (r *testRunner) Clean(rc *RunContext) error { return r.phase(rc, PhaseClean) }

// fixture creates a service with one scheduled evaluation of 'jobs' jobs.
func setupJobs(t *testing.T, jobs int) (*core.Service, string) {
	t.Helper()
	clock := metrics.NewManualClock(time.Unix(1e9, 0))
	svc, err := core.NewService(relstore.OpenMemory(), clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := svc.CreateUser("u", core.RoleAdmin)
	p, _ := svc.CreateProject("p", "", u.ID, nil)
	defs := []params.Definition{
		{Name: "threads", Type: params.TypeInterval, Min: 1, Max: 64, Default: params.Int(1)},
	}
	sys, _ := svc.RegisterSystem("sue", "", defs, nil)
	dep, err := svc.CreateDeployment(sys.ID, "d", "", "")
	if err != nil {
		t.Fatal(err)
	}
	variants := make([]params.Value, jobs)
	for i := range variants {
		variants[i] = params.Int(int64(i + 1))
	}
	exp, err := svc.CreateExperiment(p.ID, sys.ID, "e", "", map[string][]params.Value{"threads": variants}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.CreateEvaluation(exp.ID); err != nil {
		t.Fatal(err)
	}
	return svc, dep.ID
}

func newAgent(svc *core.Service, depID string, factory func() Runner) *Agent {
	return &Agent{
		Control:        &LocalControl{Svc: svc},
		DeploymentID:   depID,
		Factory:        factory,
		PollInterval:   5 * time.Millisecond,
		ReportInterval: 5 * time.Millisecond,
	}
}

// recordingControl notes the name of every Control call, in order.
type recordingControl struct {
	Control
	mu    sync.Mutex
	calls []string
}

func (r *recordingControl) note(name string) {
	r.mu.Lock()
	r.calls = append(r.calls, name)
	r.mu.Unlock()
}

func (r *recordingControl) seen() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.calls...)
}

func (r *recordingControl) ClaimJob(dep string) (*core.Job, []params.Definition, error) {
	r.note("ClaimJob")
	return r.Control.ClaimJob(dep)
}
func (r *recordingControl) Progress(id string, pct int64) (core.JobStatus, error) {
	r.note("Progress")
	return r.Control.Progress(id, pct)
}
func (r *recordingControl) StageLog(id, text string) {
	r.note("StageLog")
	r.Control.StageLog(id, text)
}
func (r *recordingControl) AppendLog(id, text string) error {
	r.note("AppendLog")
	return r.Control.AppendLog(id, text)
}
func (r *recordingControl) StageClaim(id, dep string) {
	r.note("StageClaim")
	r.Control.StageClaim(id, dep)
}
func (r *recordingControl) Complete(id string, resultJSON, archive []byte) error {
	r.note("Complete")
	return r.Control.Complete(id, resultJSON, archive)
}
func (r *recordingControl) HandBack(dep string) error {
	r.note("HandBack")
	return r.Control.HandBack(dep)
}
func (r *recordingControl) Fail(id, reason string) error {
	r.note("Fail")
	return r.Control.Fail(id, reason)
}

// TestAgentCallSequence pins what a job that ends before the first
// reporter tick costs the control plane: the claim and the closing call,
// which the trailing log rides (StageLog is no round trip) — no flush of
// its own, and no end-of-job Progress, which would be a durable round trip
// that Complete and Fail make redundant. A Complete is preceded by
// StageClaim (no round trip either): it claims the next job, which is what
// makes the following ClaimJob free over REST. A Fail never is. An agent
// stopped mid-job (its own context cancelled: SIGTERM) closes the attempt
// with a Fail — the server has recorded no abort, so without it the job
// would sit running until the watchdog's heartbeat timeout — and, stopping,
// stages no claim.
func TestAgentCallSequence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		runner testRunner
		stop   bool // cancel RunOnce's context on entering Execute
		want   []string
		status core.JobStatus
		reason string
	}{
		{"finishes", testRunner{}, false, []string{"ClaimJob", "StageLog", "StageClaim", "Complete"}, core.StatusFinished, ""},
		// One failed attempt: the job is re-scheduled for its next one.
		{"runner error", testRunner{executeErr: fmt.Errorf("disk exploded")}, false, []string{"ClaimJob", "StageLog", "Fail"}, core.StatusScheduled, "disk exploded"},
		{"agent stopped", testRunner{slow: time.Minute, slowIn: PhaseExecute}, true, []string{"ClaimJob", "StageLog", "Fail"}, core.StatusScheduled, "agent stopped"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, depID := setupJobs(t, 1)
			rec := &recordingControl{Control: &LocalControl{Svc: svc}}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			a := newAgent(svc, depID, func() Runner {
				r := tc.runner
				if tc.stop {
					r.stop = cancel
				}
				return &r
			})
			a.Control = rec
			a.ReportInterval = time.Hour // no reporter tick inside the job
			if worked, err := a.RunOnce(ctx); err != nil || !worked {
				t.Fatalf("RunOnce = %v, %v", worked, err)
			}
			if got := rec.seen(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("control calls = %v, want %v", got, tc.want)
			}
			evs, _ := svc.ListEvaluations("")
			jobs, _ := svc.ListJobs(evs[0].ID)
			if jobs[0].Status != tc.status {
				t.Fatalf("job is %s, want %s", jobs[0].Status, tc.status)
			}
			// The trailing flush carried every phase's log line.
			logs, _ := svc.JobLogs(jobs[0].ID)
			if len(logs) != 1 || !strings.Contains(logs[0].Text, "phase "+PhaseClean) {
				t.Fatalf("trailing log not flushed in one chunk: %d chunk(s)", len(logs))
			}
			if tc.reason == "" {
				return
			}
			// A failed attempt's timeline says why.
			events, _ := svc.JobTimeline(jobs[0].ID)
			for _, ev := range events {
				if ev.Kind == core.EventFailed && strings.Contains(ev.Message, tc.reason) {
					return
				}
			}
			t.Fatalf("no failed event says %q: %+v", tc.reason, events)
		})
	}
}

// tickRunner logs, waits in Execute until a reporter tick has reached the
// control, and logs again.
type tickRunner struct {
	testRunner
	ticked <-chan struct{}
}

func (r *tickRunner) Execute(rc *RunContext) error {
	rc.Logf("before the tick")
	<-r.ticked
	rc.Logf("after the tick")
	return nil
}

// tickControl closes ticked when the first Progress has been answered.
type tickControl struct {
	*recordingControl
	once   sync.Once
	ticked chan struct{}
}

func (c *tickControl) Progress(id string, pct int64) (core.JobStatus, error) {
	st, err := c.recordingControl.Progress(id, pct)
	c.once.Do(func() { close(c.ticked) })
	return st, err
}

// TestAgentReporterTick pins a reporting tick: the log gathered since the
// last one is staged and rides the tick's Progress — [StageLog, Progress],
// one round trip — and staged text is always followed by a call that
// carries it, with nothing but the Complete's StageClaim in between.
func TestAgentReporterTick(t *testing.T) {
	svc, depID := setupJobs(t, 1)
	ctl := &tickControl{
		recordingControl: &recordingControl{Control: &LocalControl{Svc: svc}},
		ticked:           make(chan struct{}),
	}
	a := newAgent(svc, depID, func() Runner { return &tickRunner{ticked: ctl.ticked} })
	a.Control = ctl
	a.ReportInterval = 20 * time.Millisecond
	if worked, err := a.RunOnce(context.Background()); err != nil || !worked {
		t.Fatalf("RunOnce = %v, %v", worked, err)
	}
	calls := ctl.seen()
	if want := []string{"ClaimJob", "StageLog", "Progress"}; len(calls) < 5 || !reflect.DeepEqual(calls[:3], want) {
		t.Fatalf("control calls = %v, want %v first", calls, want)
	}
	if last := calls[len(calls)-1]; last != "Complete" {
		t.Fatalf("control calls = %v, want Complete last", calls)
	}
	for i, call := range calls[:len(calls)-1] {
		next := calls[i+1]
		if next == "StageClaim" { // no round trip either; its Complete follows
			next = calls[i+2]
		}
		if call == "StageLog" && next != "Progress" && next != "Complete" {
			t.Fatalf("StageLog followed by %s, which carries no log: %v", next, calls)
		}
		if call == "AppendLog" {
			t.Fatalf("a finishing job flushed its log by a call of its own: %v", calls)
		}
	}
	// The tick's chunk comes before the trailing one.
	evs, _ := svc.ListEvaluations("")
	jobs, _ := svc.ListJobs(evs[0].ID)
	logs, _ := svc.JobLogs(jobs[0].ID)
	if len(logs) < 2 || !strings.Contains(logs[0].Text, "before the tick") ||
		!strings.Contains(logs[len(logs)-1].Text, "phase "+PhaseClean) {
		t.Fatalf("chunks out of order: %+v", logs)
	}
}

func TestAgentHappyPath(t *testing.T) {
	svc, depID := setupJobs(t, 2)
	var runners []*testRunner
	a := newAgent(svc, depID, func() Runner {
		r := &testRunner{}
		runners = append(runners, r)
		return r
	})
	n, err := a.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("drained %d jobs", n)
	}
	// Each runner went through all five phases in order.
	for _, r := range runners {
		want := []string{PhasePrepare, PhaseWarmUp, PhaseExecute, PhaseAnalyze, PhaseClean}
		if strings.Join(r.phases, ",") != strings.Join(want, ",") {
			t.Fatalf("phases = %v", r.phases)
		}
	}
	// Jobs finished with results carrying runner analysis + standard
	// metrics + zip archive.
	evs, _ := svc.ListEvaluations("")
	jobs, _ := svc.ListJobs(evs[0].ID)
	for _, j := range jobs {
		if j.Status != core.StatusFinished {
			t.Fatalf("job %s = %s (%s)", j.ID, j.Status, j.Error)
		}
		res, err := svc.GetJobResult(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(res.JSON, &doc); err != nil {
			t.Fatal(err)
		}
		if doc["throughput"] != 123.0 {
			t.Fatalf("result = %v", doc)
		}
		if _, ok := doc["phases"]; !ok {
			t.Fatal("standard phase metrics missing")
		}
		if _, ok := doc["parameters"]; !ok {
			t.Fatal("parameters missing from result")
		}
		// Archive is a zip with the attached file.
		zr, err := zip.NewReader(bytes.NewReader(res.Archive), int64(len(res.Archive)))
		if err != nil {
			t.Fatalf("archive: %v", err)
		}
		if len(zr.File) != 1 || zr.File[0].Name != "raw.csv" {
			t.Fatalf("archive contents: %v", zr.File)
		}
		// Logs streamed.
		logs, _ := svc.JobLogs(j.ID)
		if len(logs) == 0 {
			t.Fatal("no logs streamed")
		}
	}
}

func TestAgentReportsFailure(t *testing.T) {
	svc, depID := setupJobs(t, 1)
	a := newAgent(svc, depID, func() Runner {
		return &testRunner{executeErr: fmt.Errorf("disk exploded")}
	})
	// DefaultMaxAttempts is 3: drain runs the job three times (auto
	// reschedule) before it sticks as failed.
	n, err := a.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("attempts = %d, want 3", n)
	}
	evs, _ := svc.ListEvaluations("")
	jobs, _ := svc.ListJobs(evs[0].ID)
	j := jobs[0]
	if j.Status != core.StatusFailed {
		t.Fatalf("status = %s", j.Status)
	}
	if !strings.Contains(j.Error, "disk exploded") || !strings.Contains(j.Error, PhaseExecute) {
		t.Fatalf("error = %q", j.Error)
	}
}

func TestAgentRunnerPanicBecomesFailure(t *testing.T) {
	svc, depID := setupJobs(t, 1)
	var r *testRunner
	a := newAgent(svc, depID, func() Runner {
		r = &testRunner{panicIn: PhaseWarmUp}
		return r
	})
	if _, err := a.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	evs, _ := svc.ListEvaluations("")
	jobs, _ := svc.ListJobs(evs[0].ID)
	if jobs[0].Status != core.StatusFailed {
		t.Fatalf("status = %s", jobs[0].Status)
	}
	if !strings.Contains(jobs[0].Error, "panic") {
		t.Fatalf("error = %q", jobs[0].Error)
	}
	// The panic must not skip Clean: a long-lived agent would leak one
	// SuE instance per panicking job.
	if !slices.Contains(r.phases, PhaseClean) {
		t.Fatalf("clean not run after a panic: %v", r.phases)
	}
}

func TestAgentCleansUpAfterPhaseError(t *testing.T) {
	svc, depID := setupJobs(t, 1)
	var r *testRunner
	a := newAgent(svc, depID, func() Runner {
		r = &testRunner{prepareErr: fmt.Errorf("no data")}
		return r
	})
	a.RunOnce(context.Background())
	// Clean must still have run.
	found := false
	for _, p := range r.phases {
		if p == PhaseClean {
			found = true
		}
	}
	if !found {
		t.Fatalf("clean not run after failure: %v", r.phases)
	}
}

func TestAgentObservesAbort(t *testing.T) {
	svc, depID := setupJobs(t, 1)
	a := newAgent(svc, depID, func() Runner {
		// A long, interruptible execute phase that ends the way both
		// simulators' Execute does: return rc.Err().
		return &testRunner{slow: 2 * time.Second, slowIn: PhaseExecute}
	})
	rec := &recordingControl{Control: a.Control}
	a.Control = rec
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.RunOnce(context.Background())
	}()
	// Wait for the job to be running, then abort it server-side.
	var jobID string
	deadline := time.After(2 * time.Second)
	for jobID == "" {
		select {
		case <-deadline:
			t.Fatal("job never started")
		case <-time.After(5 * time.Millisecond):
		}
		evs, _ := svc.ListEvaluations("")
		jobs, _ := svc.ListJobs(evs[0].ID)
		if jobs[0].Status == core.StatusRunning {
			jobID = jobs[0].ID
		}
	}
	if err := svc.AbortJob(jobID); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("agent did not notice abort")
	}
	if time.Since(start) > 1500*time.Millisecond {
		t.Fatal("agent reacted too slowly to abort")
	}
	j, _ := svc.GetJob(jobID)
	if j.Status != core.StatusAborted {
		t.Fatalf("status = %s", j.Status)
	}
	// It was a reporter tick's Progress answer that cancelled the job
	// (the agent sends no other), and the agent sent no closing call: the
	// abort reaches it wrapped by the phase that returned it ("agent:
	// phase execute: ..."), and is an abort all the same — the server
	// would refuse a Fail with 409.
	ticks := 0
	for _, call := range rec.seen() {
		switch call {
		case "Progress":
			ticks++
		case "Complete", "Fail":
			t.Fatalf("aborted job was closed with %s: %v", call, rec.seen())
		}
	}
	if ticks == 0 {
		t.Fatalf("no reporter tick reached the control: %v", rec.seen())
	}
	// With no closing call to ride, the trailing log (Clean ran after the
	// abort) goes by a call of its own, last, and is stored.
	calls := rec.seen()
	if last := calls[len(calls)-1]; last != "AppendLog" {
		t.Fatalf("aborted job's trailing log not sent by AppendLog: %v", calls)
	}
	logs, _ := svc.JobLogs(jobID)
	if len(logs) == 0 || !strings.Contains(logs[len(logs)-1].Text, "phase "+PhaseClean) {
		t.Fatalf("aborted job's trailing log not stored: %+v", logs)
	}
}

func TestAgentRunStopsOnContextCancel(t *testing.T) {
	svc, depID := setupJobs(t, 1)
	a := newAgent(svc, depID, func() Runner { return &testRunner{} })
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- a.Run(ctx) }()
	// Give it time to drain the queue and go idle, then cancel.
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop")
	}
}

// memStore is an in-memory ArchiveStore.
type memStore struct {
	stored map[string][]byte
}

func (m *memStore) Store(jobID string, archive []byte) (string, error) {
	if m.stored == nil {
		m.stored = map[string][]byte{}
	}
	m.stored[jobID] = archive
	return "mem://" + jobID, nil
}

func TestAgentOffloadsArchive(t *testing.T) {
	svc, depID := setupJobs(t, 1)
	store := &memStore{}
	a := newAgent(svc, depID, func() Runner { return &testRunner{} })
	a.ArchiveStore = store
	if _, err := a.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	evs, _ := svc.ListEvaluations("")
	jobs, _ := svc.ListJobs(evs[0].ID)
	res, err := svc.GetJobResult(jobs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	// Archive went to the store, not inline.
	if len(res.Archive) != 0 {
		t.Fatal("archive uploaded inline despite store")
	}
	var doc map[string]any
	json.Unmarshal(res.JSON, &doc)
	ref, _ := doc["archiveRef"].(string)
	if ref != "mem://"+jobs[0].ID {
		t.Fatalf("archiveRef = %q", ref)
	}
	if len(store.stored[jobs[0].ID]) == 0 {
		t.Fatal("store did not receive the archive")
	}
}

func TestLocalControlProvidesDefinitions(t *testing.T) {
	svc, depID := setupJobs(t, 1)
	lc := &LocalControl{Svc: svc}
	job, defs, err := lc.ClaimJob(depID)
	if err != nil || job == nil {
		t.Fatalf("claim: %v", err)
	}
	if len(defs) != 1 || defs[0].Name != "threads" {
		t.Fatalf("defs = %v", defs)
	}
	// Empty queue claims return nil without error.
	job2, _, err := lc.ClaimJob(depID)
	if err != nil || job2 != nil {
		t.Fatalf("empty claim = %v, %v", job2, err)
	}
}
