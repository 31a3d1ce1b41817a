// Package agent implements the Chronos Agent library, the Go counterpart
// of the paper's Java reference agent (§2.2): it handles all
// communication with Chronos Control — claiming job descriptions,
// streaming log output, updating progress, measuring the standard
// metrics, and uploading results via HTTP or to an external archive
// store (the paper's FTP/NAS path).
//
// Integrating an evaluation client "narrows down to calling already
// existing methods": implement Runner's five phases and hand a factory to
// the Agent.
//
// What that communication costs Chronos Control is part of the contract.
// In steady state a job is one call: the agent stages a claim before each
// Complete (StageClaim), the Complete closes the job and claims the
// deployment's next one in the same transaction, and the ClaimJob that
// follows returns that job without a request. ClaimJob is a call of its own
// for the first job, on an empty queue and after a Fail; every
// ReportInterval inside a job adds one Progress. Each call is one request,
// one commit and one fsync over REST. Log output costs none of its own: the
// agent hands it to StageLog and it rides the call that follows — the
// tick's Progress, the job's Complete or Fail — stored in that call's
// transaction. The one log with no call after it, the trailing output of
// an aborted job (the server would refuse a Complete or Fail), goes by
// AppendLog.
//
// A job claimed ahead is running on the server before the agent has seen
// it, so an agent that stops must give it back: Run and Drain call HandBack
// on every return path, which returns the job to the queue with its attempt
// unspent. A caller driving RunOnce by hand owns that duty — RunOnce
// stages like Run does — and a killed agent strands the job until the
// heartbeat timeout, exactly as it strands the job it was running.
package agent

import (
	"archive/zip"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/params"
)

// Control is the slice of Chronos Control an agent needs. It is
// implemented by pkg/client.Client (remote, REST) and by LocalControl
// (in-process, used by examples and benchmarks).
type Control interface {
	// ClaimJob requests work for a deployment; job is nil when idle. A job
	// the last Complete claimed ahead (StageClaim) is returned first, at no
	// cost. A disabled deployment is answered core.ErrInactiveDeployment,
	// which Run and Drain take for an idle answer, not a failure.
	ClaimJob(deploymentID string) (*core.Job, []params.Definition, error)
	// Progress reports percent complete and returns the current status;
	// the agent sends one per reporting tick, and it doubles as the job's
	// heartbeat.
	Progress(jobID string, percent int64) (core.JobStatus, error)
	// StageLog hands over log output that needs no acknowledgement of its
	// own: it is stored no later than the next Progress, Complete or Fail
	// for the job returns, ahead of that call's state change and even if
	// the change is refused. A remote Control sends it inside that call —
	// no request, commit or fsync of its own — so a caller stages only
	// when such a call follows. Like AppendLog, at most once: the text is
	// lost if the call carrying it is.
	StageLog(jobID, text string)
	// AppendLog stores log output before it returns, in a round trip of
	// its own: for output no other call follows (the agent's one such case
	// is the trailing log of an aborted job).
	AppendLog(jobID, text string) error
	// StageClaim makes jobID's Complete also claim deploymentID's next job:
	// the next ClaimJob(deploymentID) returns it without a request. It rides
	// only that Complete — not a Fail, not another job's call — and a
	// Complete that errs claims nothing the caller will see. A remote
	// Control holds at most one such job per deployment; in process there
	// is no round trip to save and it is a no-op. Whoever stages must
	// follow with ClaimJob or HandBack.
	StageClaim(jobID, deploymentID string)
	// Complete uploads the result and closes the job.
	Complete(jobID string, resultJSON, archive []byte) error
	// Fail reports an execution failure and closes the attempt.
	Fail(jobID, reason string) error
	// HandBack gives back the job claimed ahead for deploymentID that
	// ClaimJob has not yet returned: it is scheduled again as it was, its
	// attempt unspent. A no-op when there is none.
	HandBack(deploymentID string) error
}

// ArchiveStore stores result archives outside Chronos Control (paper:
// upload "via HTTP or FTP. The latter allows to use a different server or
// a NAS ... which also reduces the load and storage requirements on the
// Chronos Control server"). Implemented by ftpx.ArchiveStore.
type ArchiveStore interface {
	// Store persists the archive and returns a reference (e.g. an FTP
	// URL) that is recorded in the result JSON instead of the payload.
	Store(jobID string, archive []byte) (ref string, err error)
}

// Runner is the phase interface an evaluation client implements — the
// paper's evaluation workflow: set-up, warm-up, execution, analysis,
// plus clean-up. Each phase receives the RunContext for parameters,
// logging, progress and abort checks.
type Runner interface {
	// Prepare sets up the SuE for the job's exact parameters (for
	// databases: generate and ingest the benchmark data).
	Prepare(rc *RunContext) error
	// WarmUp fills caches/buffers so the measured run reflects realistic
	// use.
	WarmUp(rc *RunContext) error
	// Execute runs the actual benchmark.
	Execute(rc *RunContext) error
	// Analyze condenses measurements into the result document every data
	// item of which Chronos Control can visualise.
	Analyze(rc *RunContext) (map[string]any, error)
	// Clean tears down the job's state.
	Clean(rc *RunContext) error
}

// Phase names used for the standard phase-duration metrics.
const (
	PhasePrepare = "prepare"
	PhaseWarmUp  = "warmup"
	PhaseExecute = "execute"
	PhaseAnalyze = "analyze"
	PhaseClean   = "clean"
)

// ErrAborted is returned by RunContext.Err when Chronos Control aborted
// the job or the agent itself is being stopped; runners should return
// promptly once set.
var ErrAborted = fmt.Errorf("agent: job aborted by chronos control")

// RunContext carries everything a Runner needs during one job.
type RunContext struct {
	// Job is the claimed job, including its parameter assignment.
	Job *core.Job
	// Definitions are the system's parameter definitions (populated when
	// the control side provides them, e.g. API v2 or local control).
	Definitions []params.Definition
	// Timer measures the workflow phases; the agent manages it.
	Timer *metrics.PhaseTimer

	ctx    context.Context
	cancel context.CancelFunc

	mu          sync.Mutex
	logBuf      bytes.Buffer
	progress    int64
	attachments map[string][]byte
	result      map[string]any
}

// Params returns the job's parameter assignment.
func (rc *RunContext) Params() params.Assignment { return rc.Job.Params }

// Context returns a context cancelled when the job is aborted.
func (rc *RunContext) Context() context.Context { return rc.ctx }

// Err returns ErrAborted once the job's context is cancelled: by an abort
// or by the agent stopping.
func (rc *RunContext) Err() error {
	if rc.ctx.Err() != nil {
		return ErrAborted
	}
	return nil
}

// Logf appends a line to the buffered job log; the agent flushes the
// buffer to Chronos Control periodically.
func (rc *RunContext) Logf(format string, args ...any) {
	rc.mu.Lock()
	fmt.Fprintf(&rc.logBuf, format, args...)
	if n := rc.logBuf.Len(); n > 0 && rc.logBuf.Bytes()[n-1] != '\n' {
		rc.logBuf.WriteByte('\n')
	}
	rc.mu.Unlock()
}

// SetProgress records percent complete [0,100]; the agent reports it on
// the next reporting tick.
func (rc *RunContext) SetProgress(percent int64) {
	rc.mu.Lock()
	rc.progress = percent
	rc.mu.Unlock()
}

// AttachFile adds a named file to the result zip archive (paper §2.1:
// "Additional results can be stored in the zip file").
func (rc *RunContext) AttachFile(name string, data []byte) {
	rc.mu.Lock()
	if rc.attachments == nil {
		rc.attachments = make(map[string][]byte)
	}
	rc.attachments[name] = append([]byte(nil), data...)
	rc.mu.Unlock()
}

// takeLog drains the buffered log output.
func (rc *RunContext) takeLog() string {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	s := rc.logBuf.String()
	rc.logBuf.Reset()
	return s
}

// currentProgress reads the reported progress.
func (rc *RunContext) currentProgress() int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.progress
}

// buildArchive zips the attachments; returns nil when there are none.
func (rc *RunContext) buildArchive() ([]byte, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if len(rc.attachments) == 0 {
		return nil, nil
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	// Sort for deterministic archives.
	names := make([]string, 0, len(rc.attachments))
	for n := range rc.attachments {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		w, err := zw.Create(n)
		if err != nil {
			return nil, err
		}
		if _, err := w.Write(rc.attachments[n]); err != nil {
			return nil, err
		}
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Agent polls Chronos Control for jobs of one deployment and executes
// them with runners from Factory.
type Agent struct {
	// Control connects to Chronos Control (REST client or local).
	Control Control
	// DeploymentID identifies the deployment this agent serves.
	DeploymentID string
	// Factory creates a fresh Runner per job.
	Factory func() Runner
	// ArchiveStore, when set, receives result archives instead of
	// uploading them inline (the FTP/NAS path).
	ArchiveStore ArchiveStore
	// PollInterval is the idle wait between claim attempts.
	PollInterval time.Duration
	// ReportInterval is the cadence of progress/log/heartbeat reporting.
	ReportInterval time.Duration
	// ClaimRetries bounds the consecutive failed claim attempts Run and
	// Drain ride out (sleeping PollInterval between attempts) before
	// surfacing the error. A restarting leader answers a few claims with
	// transient errors; an agent fleet must poll through that, not die.
	// Claiming again is always safe — a claim that committed but whose
	// response was lost is reclaimed by the server's heartbeat watchdog,
	// never handed to this agent twice. 0 means the default (8);
	// negative fails fast.
	ClaimRetries int
}

// withDefaults fills unset intervals.
func (a *Agent) withDefaults() {
	if a.PollInterval == 0 {
		a.PollInterval = 500 * time.Millisecond
	}
	if a.ReportInterval == 0 {
		a.ReportInterval = 250 * time.Millisecond
	}
	if a.ClaimRetries == 0 {
		a.ClaimRetries = 8
	}
}

// Run polls for and executes jobs until ctx is cancelled. It hands back a
// job claimed ahead on every return path.
func (a *Agent) Run(ctx context.Context) error {
	_, err := a.work(ctx, false)
	return err
}

// Drain executes jobs until the queue is empty, then returns the number
// of jobs executed. Used by examples and benchmarks. Like Run it rides
// out up to ClaimRetries consecutive claim failures — an empty answer
// ends the drain, a flaky control plane does not — and ends with nothing
// claimed ahead.
func (a *Agent) Drain(ctx context.Context) (int, error) {
	return a.work(ctx, true)
}

// work is the loop behind Run and Drain: RunOnce until ctx is cancelled
// (Run) or until an idle answer (drain), n counting the jobs executed.
func (a *Agent) work(ctx context.Context, drain bool) (n int, err error) {
	a.withDefaults()
	defer func() {
		// The last Complete may have claimed a job this loop will not run.
		if herr := a.Control.HandBack(a.DeploymentID); herr != nil {
			log.Printf("agent: handing back the job claimed ahead for %s: %v", a.DeploymentID, herr)
			if err == nil {
				err = herr
			}
		}
	}()
	fails, inactive := 0, false
	for {
		if !drain && ctx.Err() != nil {
			return n, ctx.Err()
		}
		worked, err := a.RunOnce(ctx)
		switch {
		case errors.Is(err, core.ErrInactiveDeployment):
			// Disabled for scheduling is not broken: an idle answer, which
			// the retry budget is not for, so that whoever enables the
			// deployment again finds its agents still polling.
			if !inactive {
				log.Printf("agent: deployment %s is inactive; polling until it is enabled", a.DeploymentID)
			}
			inactive = true
		case err != nil:
			fails++
			if a.ClaimRetries < 0 || fails > a.ClaimRetries {
				return n, err
			}
			if err := a.pollWait(ctx); err != nil {
				return n, err
			}
			continue
		default:
			fails, inactive = 0, false
		}
		if worked {
			n++
			continue
		}
		if drain {
			return n, nil
		}
		if err := a.pollWait(ctx); err != nil {
			return n, err
		}
	}
}

// pollWait sleeps one PollInterval or until ctx is done.
func (a *Agent) pollWait(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(a.PollInterval):
		return nil
	}
}

// RunOnce claims and executes at most one job. worked reports whether a
// job was executed. Errors from the runner are reported to Chronos
// Control as job failures, not returned; only communication errors
// surface here. The job's Complete claims the next one ahead (StageClaim):
// a caller that stops calling RunOnce owes the Control a HandBack.
func (a *Agent) RunOnce(ctx context.Context) (worked bool, err error) {
	a.withDefaults()
	job, defs, err := a.Control.ClaimJob(a.DeploymentID)
	if err != nil {
		return false, fmt.Errorf("agent: claim: %w", err)
	}
	if job == nil {
		return false, nil
	}
	a.executeJob(ctx, job, defs)
	return true, nil
}

// executeJob runs the full workflow for one claimed job.
func (a *Agent) executeJob(parent context.Context, job *core.Job, defs []params.Definition) {
	jobCtx, cancel := context.WithCancel(parent)
	defer cancel()
	rc := &RunContext{
		Job:         job,
		Definitions: defs,
		Timer:       metrics.NewPhaseTimer(nil),
		ctx:         jobCtx,
		cancel:      cancel,
	}

	// Reporter: flush logs + progress on a fixed cadence; observe aborts.
	var wg sync.WaitGroup
	reporterDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(a.ReportInterval)
		defer ticker.Stop()
		for {
			select {
			case <-reporterDone:
				return
			case <-ticker.C:
				a.report(rc)
			}
		}
	}()

	runErr := a.runPhases(rc)

	close(reporterDone)
	wg.Wait()
	// The trailing log rides the closing call. No Progress here: it would
	// be one more durable round trip that changes nothing — Complete sets
	// progress to 100, and Complete and Fail both refuse a job that is no
	// longer running, which is all the status answer could have told us.
	text := rc.takeLog()

	// The job's context was cancelled; a runner that returns rc.Err() from
	// a phase arrives here wrapped.
	if errors.Is(runErr, ErrAborted) {
		if parent.Err() == nil {
			// The server aborted the job: the abort is recorded there and
			// a closing call would be refused, so there is none for the
			// log to ride.
			if text != "" {
				// Nothing is left to do about a failure: the job is closed.
				_ = a.Control.AppendLog(job.ID, text)
			}
			return
		}
		// The agent itself is being stopped (SIGINT/SIGTERM, Run's ctx) and
		// the server knows nothing of it. Close the attempt now — the same
		// attempt the watchdog would spend — instead of leaving the job
		// running until its heartbeat times out. Had the job been aborted
		// as well, the Fail is refused and still stores the log it carries.
		runErr = fmt.Errorf("agent stopped: %w", parent.Err())
	}
	if text != "" {
		a.Control.StageLog(job.ID, text)
	}
	if runErr != nil {
		// Failing the job may trigger automatic re-scheduling server-side.
		a.Control.Fail(job.ID, runErr.Error())
		return
	}

	resultJSON, archive, err := a.buildResult(rc)
	if err != nil {
		a.Control.Fail(job.ID, fmt.Sprintf("agent: build result: %v", err))
		return
	}
	// Steady state is this one call: it also claims the next job, which the
	// coming ClaimJob returns. Not when the agent is already stopping — that
	// job would only have to be handed back.
	if parent.Err() == nil {
		a.Control.StageClaim(job.ID, a.DeploymentID)
	}
	if err := a.Control.Complete(job.ID, resultJSON, archive); err != nil {
		// Completion raced an abort or the control is gone; nothing to do.
		return
	}
}

// report sends buffered logs and current progress in one call; on an abort
// response it cancels the job context.
func (a *Agent) report(rc *RunContext) {
	if text := rc.takeLog(); text != "" {
		a.Control.StageLog(rc.Job.ID, text)
	}
	st, err := a.Control.Progress(rc.Job.ID, rc.currentProgress())
	if err != nil {
		return // transient; next tick retries
	}
	if st != core.StatusRunning {
		rc.cancel()
	}
}

// isolate runs fn with panic isolation: a panicking runner fails its job,
// not the agent.
func isolate(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("agent: runner panic: %v", p)
		}
	}()
	return fn()
}

// runPhases executes the five workflow phases. Clean runs however the
// first four ended — finished, failed, aborted or panicked — so a
// long-lived agent never leaks an SuE instance.
func (a *Agent) runPhases(rc *RunContext) error {
	var runner Runner
	err := isolate(func() error {
		runner = a.Factory()
		phases := []struct {
			name string
			fn   func(*RunContext) error
		}{
			{PhasePrepare, runner.Prepare},
			{PhaseWarmUp, runner.WarmUp},
			{PhaseExecute, runner.Execute},
			{PhaseAnalyze, func(rc *RunContext) error {
				res, err := runner.Analyze(rc)
				if err != nil {
					return err
				}
				rc.mu.Lock()
				rc.result = res
				rc.mu.Unlock()
				return nil
			}},
		}
		for _, ph := range phases {
			if rc.Err() != nil {
				return ErrAborted
			}
			if err := rc.Timer.Time(ph.name, func() error { return ph.fn(rc) }); err != nil {
				return fmt.Errorf("agent: phase %s: %w", ph.name, err)
			}
		}
		return nil
	})
	if runner == nil {
		return err // the factory itself panicked: nothing to clean
	}
	cleanErr := isolate(func() error {
		return rc.Timer.Time(PhaseClean, func() error { return runner.Clean(rc) })
	})
	switch {
	case err != nil:
		return err
	case cleanErr != nil:
		return fmt.Errorf("agent: phase clean: %w", cleanErr)
	case rc.Err() != nil:
		return ErrAborted
	}
	return nil
}

// buildResult merges the runner's analysis with the standard metrics and
// renders the result JSON plus the zip archive (possibly offloaded).
func (a *Agent) buildResult(rc *RunContext) (resultJSON, archive []byte, err error) {
	rc.mu.Lock()
	result := rc.result
	rc.mu.Unlock()
	if result == nil {
		result = map[string]any{}
	}
	// Standard metrics the agent library contributes automatically.
	result["phases"] = rc.Timer.Durations()
	result["parameters"] = rc.Job.Params

	archive, err = rc.buildArchive()
	if err != nil {
		return nil, nil, err
	}
	if archive != nil && a.ArchiveStore != nil {
		ref, err := a.ArchiveStore.Store(rc.Job.ID, archive)
		if err != nil {
			return nil, nil, fmt.Errorf("agent: archive store: %w", err)
		}
		result["archiveRef"] = ref
		archive = nil
	}
	resultJSON, err = json.Marshal(result)
	if err != nil {
		return nil, nil, err
	}
	return resultJSON, archive, nil
}

// LocalControl adapts a core.Service to the Control interface for
// in-process agents (examples, tests, benchmarks). It behaves like the v2
// API: claims include the system's parameter definitions.
type LocalControl struct {
	Svc *core.Service
}

var _ Control = (*LocalControl)(nil)

// ClaimJob implements Control.
func (l *LocalControl) ClaimJob(deploymentID string) (*core.Job, []params.Definition, error) {
	job, ok, err := l.Svc.ClaimJob(deploymentID)
	if err != nil || !ok {
		return nil, nil, err
	}
	var defs []params.Definition
	if sys, err := l.Svc.GetSystem(job.SystemID); err == nil {
		defs = sys.Parameters
	}
	return job, defs, nil
}

// Progress implements Control.
func (l *LocalControl) Progress(jobID string, percent int64) (core.JobStatus, error) {
	return l.Svc.Progress(jobID, percent)
}

// StageLog implements Control. In process there is no round trip to save,
// so the text is stored at once.
func (l *LocalControl) StageLog(jobID, text string) {
	// A missing job or a failed store is reported by the call that follows.
	_ = l.Svc.AppendJobLog(jobID, text)
}

// AppendLog implements Control.
func (l *LocalControl) AppendLog(jobID, text string) error {
	return l.Svc.AppendJobLog(jobID, text)
}

// StageClaim implements Control. In process a claim is a function call:
// nothing is claimed ahead.
func (l *LocalControl) StageClaim(jobID, deploymentID string) {}

// HandBack implements Control: nothing is ever held.
func (l *LocalControl) HandBack(deploymentID string) error { return nil }

// Complete implements Control.
func (l *LocalControl) Complete(jobID string, resultJSON, archive []byte) error {
	return l.Svc.CompleteJob(jobID, resultJSON, archive)
}

// Fail implements Control.
func (l *LocalControl) Fail(jobID, reason string) error {
	return l.Svc.FailJob(jobID, reason)
}
