package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"chronos/internal/params"
	"chronos/internal/relstore"
)

// CreateEvaluation runs an experiment: the parameter space expands into
// one job per assignment, all created in state scheduled (paper §2.1:
// "An evaluation is the run of an experiment and consists of one or
// multiple jobs").
func (s *Service) CreateEvaluation(experimentID string) (*Evaluation, []*Job, error) {
	var (
		ev   *Evaluation
		jobs []*Job
	)
	err := s.store.db.Update(func(tx *relstore.Tx) error {
		exp, err := s.store.GetExperiment(tx, experimentID)
		if err != nil {
			return mapNotFound(err)
		}
		if exp.Archived {
			return ErrArchived
		}
		sys, err := s.store.GetSystem(tx, exp.SystemID)
		if err != nil {
			return mapNotFound(err)
		}
		space, err := params.NewSpace(sys.Parameters, exp.Settings)
		if err != nil {
			return err
		}
		n, err := tx.NextSeq(tableEvaluations)
		if err != nil {
			return err
		}
		now := s.now()
		ev = &Evaluation{
			ID:           paddedID("evaluation", n),
			ExperimentID: exp.ID,
			Number:       n,
			Created:      now,
		}
		if err := s.store.PutEvaluation(tx, ev); err != nil {
			return err
		}
		for i, assignment := range space.Expand() {
			jn, err := tx.NextSeq(tableJobs)
			if err != nil {
				return err
			}
			j := &Job{
				ID:           paddedID("job", jn),
				EvaluationID: ev.ID,
				SystemID:     exp.SystemID,
				Index:        int64(i),
				Params:       assignment,
				Status:       StatusScheduled,
				Attempts:     0,
				Created:      now,
			}
			if err := s.store.PutJob(tx, j); err != nil {
				return err
			}
			if err := s.putEvent(tx, j.ID, EventCreated, "job created: "+j.Label()); err != nil {
				return err
			}
			jobs = append(jobs, j)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return ev, jobs, nil
}

// GetEvaluation returns the evaluation with the given id.
func (s *Service) GetEvaluation(id string) (*Evaluation, error) {
	var ev *Evaluation
	err := s.store.db.View(func(tx *relstore.Tx) error {
		var err error
		ev, err = s.store.GetEvaluation(tx, id)
		return mapNotFound(err)
	})
	return ev, err
}

// ListEvaluations returns the evaluations of an experiment.
func (s *Service) ListEvaluations(experimentID string) ([]*Evaluation, error) {
	return readRows(s.store.db, func(tx *relstore.Tx) (rowsOf[Evaluation], error) {
		return s.store.ListEvaluations(tx, experimentID)
	})
}

// ListJobs returns the jobs of an evaluation in creation order.
func (s *Service) ListJobs(evaluationID string) ([]*Job, error) {
	return readRows(s.store.db, func(tx *relstore.Tx) (rowsOf[Job], error) {
		return s.store.ListJobsByEvaluation(tx, evaluationID)
	})
}

// GetJob returns the job with the given id. Its columns are read in a
// View, its params decoded after it.
func (s *Service) GetJob(id string) (*Job, error) {
	var r *jobRow
	err := s.store.db.View(func(tx *relstore.Tx) error {
		var err error
		r, err = s.store.readJob(tx, id)
		return mapNotFound(err)
	})
	if err != nil {
		return nil, err
	}
	return r.job()
}

// putEvent appends a timeline event inside an existing transaction.
func (s *Service) putEvent(tx *relstore.Tx, jobID string, kind EventKind, msg string) error {
	n, err := tx.NextSeq(tableEvents)
	if err != nil {
		return err
	}
	return s.store.PutEvent(tx, &Event{
		ID:      paddedID("event", n),
		JobID:   jobID,
		Kind:    kind,
		Message: msg,
		Time:    s.now(),
	})
}

// transition applies a validated job state change inside tx.
func (s *Service) transition(tx *relstore.Tx, j *jobRow, to JobStatus) error {
	if !CanTransition(j.Status, to) {
		return fmt.Errorf("%w: %s -> %s (job %s)", ErrInvalidTransition, j.Status, to, j.ID)
	}
	j.Status = to
	return nil
}

// ClaimJob hands the oldest scheduled job of the deployment's system to
// the calling agent (paper §2.2: clients request job descriptions via the
// REST API). The claim is atomic: concurrent agents never receive the
// same job. ok is false when no work is available.
func (s *Service) ClaimJob(deploymentID string) (job *Job, ok bool, err error) {
	job, _, err = s.Claim(deploymentID)
	return job, job != nil, err
}

// Claim is ClaimJob answering also the parameter definitions of the
// claimed job's system, as the system's parameters column holds them:
// JSON, nil for a system that defines none. They are read in the
// claiming transaction and decoded by nobody on the server; the v2 claim
// answer carries them as they are.
//
// The job's params are decoded after the commit. A job whose params do
// not decode is claimed all the same and answered as an error, as if the
// answer had been lost: the watchdog hands it out again.
func (s *Service) Claim(deploymentID string) (job *Job, parameters json.RawMessage, err error) {
	var r *jobRow
	err = s.store.db.Update(func(tx *relstore.Tx) error {
		r, parameters, err = s.claim(tx, deploymentID)
		return err
	})
	if err != nil || r == nil {
		return nil, nil, err
	}
	if s.met != nil {
		s.met.claimedByClaim.Inc()
	}
	if job, err = r.job(); err != nil {
		return nil, nil, err
	}
	return job, parameters, nil
}

// claim is the body of a claim, inside the caller's transaction: Claim
// runs it in one of its own, a completion that asks for the next job
// (CompleteJobClaimNext) in the completing one. It returns the granted
// job's columns and its system's parameter definitions: nil, nil, nil when
// the deployment's queue is empty, ErrNotFound for an unknown deployment
// and ErrInactiveDeployment for a disabled one, having written nothing.
func (s *Service) claim(tx *relstore.Tx, deploymentID string) (*jobRow, json.RawMessage, error) {
	// Scalar-column projection: every poll reads the deployment's row
	// once instead of decoding the deployment's JSON.
	systemID, depName, active, err := s.store.DeploymentClaimInfo(tx, deploymentID)
	if err != nil {
		return nil, nil, mapNotFound(err)
	}
	if !active {
		return nil, nil, ErrInactiveDeployment
	}
	// Limit(1) indexed lookup: the planner drives from the smaller of
	// the status/system posting lists and reads one job's columns.
	j, err := s.store.firstJob(tx, StatusScheduled, systemID)
	if err != nil || j == nil {
		return nil, nil, err
	}
	defs, err := s.store.systemParameters(tx, systemID)
	if err != nil {
		return nil, nil, fmt.Errorf("core: claim: parameters of system %s: %v", systemID, err)
	}
	if err := s.grant(tx, j, deploymentID, "claimed by "+depName+" ("+deploymentID+")"); err != nil {
		return nil, nil, err
	}
	return j, defs, nil
}

// grant is the scheduled -> running write, the one copy of it: the job is
// the deployment's, its attempt is spent and its heartbeat clock starts.
func (s *Service) grant(tx *relstore.Tx, j *jobRow, deploymentID, event string) error {
	if err := s.transition(tx, j, StatusRunning); err != nil {
		return err
	}
	now := s.now()
	j.DeploymentID = deploymentID
	j.Attempts++
	j.Started = now
	j.Heartbeat = now
	j.Progress = 0
	if err := s.store.putJobRow(tx, j); err != nil {
		return err
	}
	return s.putEvent(tx, j.ID, EventClaimed, event)
}

// ReleaseJob hands a claimed job back unrun: running returns to scheduled
// as it was before the claim — deployment, start, heartbeat and progress
// cleared and the attempt not spent, so a job with one attempt still gets
// it — at its old place in the queue. It is for the holder of a job it
// never started, which is what an agent holds when it stops with a job
// claimed ahead by its last Complete; the server cannot tell a started job
// from an unstarted one and takes the caller's word. Any other status is
// refused with ErrInvalidTransition.
//
// Un-spending the attempt reuses the (job, attempt) pair claimcheck treats
// as the claim epoch. That is sound as long as released jobs are ones no
// agent was ever handed: no acknowledged grant repeats an epoch then.
func (s *Service) ReleaseJob(jobID string) error {
	err := s.store.db.Update(func(tx *relstore.Tx) error {
		j, err := s.store.readJob(tx, jobID)
		if err != nil {
			return mapNotFound(err)
		}
		// failed -> scheduled is legal too (RescheduleJob); a release is
		// only ever of a running job.
		if j.Status != StatusRunning {
			return fmt.Errorf("%w: release of a %s job (job %s)", ErrInvalidTransition, j.Status, j.ID)
		}
		if err := s.transition(tx, j, StatusScheduled); err != nil {
			return err
		}
		from := j.DeploymentID
		j.DeploymentID = ""
		j.Attempts--
		j.Started = time.Time{}
		j.Heartbeat = time.Time{}
		j.Progress = 0
		if err := s.store.putJobRow(tx, j); err != nil {
			return err
		}
		return s.putEvent(tx, jobID, EventReleased, "handed back unrun by "+from+", attempt not spent")
	})
	if err == nil && s.met != nil {
		s.met.released.Inc()
	}
	return err
}

// jobCall is the shape of every agent call about one claimed job: load
// the job, store the log output the call carried, then make the call's own
// change — one transaction, so one commit and one fsync, and the log is
// durable exactly when the change is. A change refused for the job's state
// (ErrInvalidTransition: it was aborted, or is no longer running) still
// commits the log and still answers the refusal, which is what the agent
// would have got had the log arrived by a request of its own just before.
// change must therefore check before it writes.
func (s *Service) jobCall(jobID, log string, change func(tx *relstore.Tx, j *jobRow) error) error {
	var refused error
	err := s.store.db.Update(func(tx *relstore.Tx) error {
		j, err := s.store.readJob(tx, jobID)
		if err != nil {
			return mapNotFound(err)
		}
		if log != "" {
			if err := s.appendLog(tx, jobID, log); err != nil {
				return err
			}
		}
		err = change(tx, j)
		if errors.Is(err, ErrInvalidTransition) {
			refused, err = err, nil
		}
		return err
	})
	if err != nil {
		return err
	}
	return refused
}

// appendLog stores text as the job's next log chunk inside tx: the one
// place a chunk is written, whichever call brought it.
func (s *Service) appendLog(tx *relstore.Tx, jobID, text string) error {
	n, err := tx.NextSeq(tableLogs)
	if err != nil {
		return err
	}
	return s.store.AppendLog(tx, &LogChunk{JobID: jobID, Seq: n, Text: text, Time: s.now()})
}

// UpdateJob is the agent's mid-job report, everything it has to say in
// one transaction: log output since the last report (none when empty), the
// progress value (0-100; nil leaves it alone) and, with either, a
// heartbeat. It returns the job's current status so agents observe aborts
// promptly; a job that is no longer running keeps the log and is otherwise
// left untouched.
func (s *Service) UpdateJob(jobID string, percent *int64, log string) (JobStatus, error) {
	var status JobStatus
	err := s.jobCall(jobID, log, func(tx *relstore.Tx, j *jobRow) error {
		status = j.Status
		if j.Status != StatusRunning {
			return nil // job was aborted/failed meanwhile; just report
		}
		if percent != nil {
			j.Progress = min(max(*percent, 0), 100)
		}
		j.Heartbeat = s.now()
		return s.store.putJobRow(tx, j)
	})
	return status, err
}

// Progress records an agent's progress update (0-100) and doubles as a
// heartbeat.
func (s *Service) Progress(jobID string, percent int64) (JobStatus, error) {
	return s.UpdateJob(jobID, &percent, "")
}

// Heartbeat refreshes the agent liveness timestamp without touching the
// progress value.
func (s *Service) Heartbeat(jobID string) (JobStatus, error) {
	return s.UpdateJob(jobID, nil, "")
}

// AppendJobLog stores a chunk of agent log output (paper §2.2: the agent
// periodically sends the logger output to Chronos Control).
func (s *Service) AppendJobLog(jobID, text string) error {
	return s.store.db.Update(func(tx *relstore.Tx) error {
		if _, err := tx.GetValue(tableJobs, jobID, "id"); err != nil {
			return mapNotFound(err)
		}
		return s.appendLog(tx, jobID, text)
	})
}

// JobLogs returns a job's log chunks in order.
func (s *Service) JobLogs(jobID string) ([]*LogChunk, error) {
	return readRows(s.store.db, func(tx *relstore.Tx) (rowsOf[LogChunk], error) {
		return s.store.ListLogs(tx, jobID)
	})
}

// JobTimeline returns a job's events in order (paper Fig. 3c).
func (s *Service) JobTimeline(jobID string) ([]*Event, error) {
	var out []*Event
	err := s.store.db.View(func(tx *relstore.Tx) error {
		var err error
		out, err = s.store.ListEvents(tx, jobID)
		return err
	})
	return out, err
}

// CompleteJob records a successful run with its result (JSON + optional
// zip archive).
func (s *Service) CompleteJob(jobID string, resultJSON, archive []byte) error {
	_, _, err := s.CompleteJobClaimNext(jobID, resultJSON, archive, "", "")
	return err
}

// CompleteJobClaimNext is CompleteJob carrying the job's trailing log
// output, and claiming the next job of deployment claimFor ("" claims
// nothing), in the completing transaction: the log chunk is stored ahead
// of the result, so a finished job never lacks its last log lines, and one
// commit and one fsync close this job and hand out the next one, or
// neither happens. next and parameters are what Claim(claimFor) would have
// returned just after the completion, nil on an empty queue. The store
// keeps resultJSON and archive as they are: the caller must not modify
// them afterwards.
//
// The claim runs only once the finish is accepted — a refused completion
// (ErrInvalidTransition: the job was aborted, or is not running) claims
// nothing — and never fails an accepted one: an unknown or inactive
// deployment leaves next nil and the completion stands, and the agent
// learns which it was from the ClaimJob it makes next.
func (s *Service) CompleteJobClaimNext(jobID string, resultJSON, archive []byte, log, claimFor string) (next *Job, parameters json.RawMessage, err error) {
	var r *jobRow
	err = s.jobCall(jobID, log, func(tx *relstore.Tx, j *jobRow) error {
		if err := s.transition(tx, j, StatusFinished); err != nil {
			return err
		}
		j.Progress = 100
		j.Finished = s.now()
		if err := s.store.putJobRow(tx, j); err != nil {
			return err
		}
		if err := s.store.PutResult(tx, &Result{
			JobID: jobID, JSON: resultJSON, Archive: archive, Uploaded: s.now(),
		}); err != nil {
			return err
		}
		if err := s.putEvent(tx, jobID, EventResult, fmt.Sprintf("result uploaded (%d bytes json, %d bytes archive)", len(resultJSON), len(archive))); err != nil {
			return err
		}
		if err := s.putEvent(tx, jobID, EventFinished, "job finished"); err != nil {
			return err
		}
		if claimFor == "" {
			return nil
		}
		r, parameters, err = s.claim(tx, claimFor)
		switch {
		case errors.Is(err, ErrNotFound), errors.Is(err, ErrInactiveDeployment):
			return nil // claim wrote nothing; the finish stands
		case errors.Is(err, ErrInvalidTransition):
			// jobCall commits what change wrote when change returns this
			// error, taking it for a refusal that wrote nothing. Here the
			// finish is written, so it must not leave as one. (It cannot
			// arise while the status index is sound: claim picked the job
			// for being scheduled.)
			return fmt.Errorf("core: claim after complete: %v", err)
		}
		return err
	})
	if err != nil || r == nil {
		return nil, nil, err
	}
	if s.met != nil {
		s.met.claimedByComplete.Inc()
	}
	if next, err = r.job(); err != nil {
		return nil, nil, err
	}
	return next, parameters, nil
}

// FailJob records a failed run. If the experiment's attempt budget is not
// exhausted the job is automatically re-scheduled (requirement iii:
// automated failure handling and recovery).
func (s *Service) FailJob(jobID, reason string) error {
	return s.failJob(jobID, reason, "", EventFailed, nil)
}

// FailJobWithLog is FailJob carrying the job's trailing log output, stored
// ahead of the failure in the same transaction.
func (s *Service) FailJobWithLog(jobID, reason, log string) error {
	return s.failJob(jobID, reason, log, EventFailed, nil)
}

// errPreconditionChanged reports that a guarded failJob observed a job
// that no longer satisfies the caller's reason to fail it.
var errPreconditionChanged = errors.New("core: job state changed before fail")

// failJob implements FailJob with a configurable primary event kind so
// the watchdog can mark heartbeat losses distinctly. A non-nil guard is
// re-evaluated on the freshly loaded job inside the transaction; when it
// reports false the job is left untouched and errPreconditionChanged is
// returned. This closes the watchdog's scan-then-fail race: a job whose
// agent heartbeats between the stale scan and the fail transaction is
// never killed.
func (s *Service) failJob(jobID, reason, log string, kind EventKind, guard func(*Job) bool) error {
	return s.jobCall(jobID, log, func(tx *relstore.Tx, j *jobRow) error {
		if guard != nil && !guard(&j.Job) {
			return errPreconditionChanged
		}
		if err := s.transition(tx, j, StatusFailed); err != nil {
			return err
		}
		j.Error = reason
		j.Finished = s.now()
		j.DeploymentID = ""
		if err := s.store.putJobRow(tx, j); err != nil {
			return err
		}
		if err := s.putEvent(tx, jobID, kind, reason); err != nil {
			return err
		}
		// Automatic recovery: re-schedule while attempts remain. The
		// budget is a scalar-column projection (no JSON decoded); a
		// vanished evaluation or experiment falls back to the default.
		max := int64(s.DefaultMaxAttempts)
		if budget, ok, err := s.store.AttemptBudget(tx, j.EvaluationID); err != nil {
			return err
		} else if ok && budget > 0 {
			max = budget
		}
		if j.Attempts < max {
			if err := s.transition(tx, j, StatusScheduled); err != nil {
				return err
			}
			j.Error = ""
			j.Progress = 0
			if err := s.store.putJobRow(tx, j); err != nil {
				return err
			}
			return s.putEvent(tx, jobID, EventRescheduled,
				fmt.Sprintf("auto-rescheduled (attempt %d/%d)", j.Attempts, max))
		}
		return nil
	})
}

// AbortJob cancels a scheduled or running job (paper §2.1: "Jobs which
// are in the status scheduled or running can be aborted"). Running agents
// observe the abort through their next progress/heartbeat response.
func (s *Service) AbortJob(jobID string) error {
	return s.store.db.Update(func(tx *relstore.Tx) error {
		j, err := s.store.readJob(tx, jobID)
		if err != nil {
			return mapNotFound(err)
		}
		if err := s.transition(tx, j, StatusAborted); err != nil {
			return err
		}
		j.Finished = s.now()
		if err := s.store.putJobRow(tx, j); err != nil {
			return err
		}
		return s.putEvent(tx, jobID, EventAborted, "aborted by user")
	})
}

// RescheduleJob manually returns a failed job to the queue (paper §2.1:
// "those which are failed can be re-scheduled").
func (s *Service) RescheduleJob(jobID string) error {
	return s.store.db.Update(func(tx *relstore.Tx) error {
		j, err := s.store.readJob(tx, jobID)
		if err != nil {
			return mapNotFound(err)
		}
		// running -> scheduled is legal too (ReleaseJob); a re-schedule
		// is only ever of a failed job.
		if j.Status != StatusFailed {
			return fmt.Errorf("%w: re-schedule of a %s job (job %s)", ErrInvalidTransition, j.Status, j.ID)
		}
		if err := s.transition(tx, j, StatusScheduled); err != nil {
			return err
		}
		j.Error = ""
		j.Progress = 0
		j.DeploymentID = ""
		if err := s.store.putJobRow(tx, j); err != nil {
			return err
		}
		return s.putEvent(tx, jobID, EventRescheduled, "re-scheduled by user")
	})
}

// GetJobResult returns the uploaded result of a job.
func (s *Service) GetJobResult(jobID string) (*Result, error) {
	var r *Result
	err := s.store.db.View(func(tx *relstore.Tx) error {
		var err error
		r, err = s.store.GetResult(tx, jobID)
		return mapNotFound(err)
	})
	return r, err
}

// EvaluationStatusOf aggregates job states for the evaluation overview
// (paper Fig. 3b). One View, so the counts are one consistent cut across
// the evaluations and jobs tables; inside it the evaluation is a key
// lookup and its jobs are counted by their status and progress columns.
// Nothing is decoded.
func (s *Service) EvaluationStatusOf(evaluationID string) (EvaluationStatus, error) {
	var t tally
	err := s.store.db.View(func(tx *relstore.Tx) error {
		if _, err := tx.GetValue(tableEvaluations, evaluationID, "id"); err != nil {
			return mapNotFound(err)
		}
		return s.store.tallyJobs(tx, evaluationID, &t)
	})
	if err != nil {
		return EvaluationStatus{}, err
	}
	return t.status(evaluationID), nil
}

// StatusOfJobs aggregates jobs the caller has read — an evaluation's, in
// one cut — exactly as EvaluationStatusOf aggregates the same store state,
// so a page listing an evaluation's jobs shows their status from that one
// read.
func StatusOfJobs(evaluationID string, jobs []*Job) EvaluationStatus {
	var t tally
	for _, j := range jobs {
		t.add(j.Status, j.Progress)
	}
	return t.status(evaluationID)
}

// tally is the one aggregation of job states into an EvaluationStatus,
// behind EvaluationStatusOf and StatusOfJobs.
type tally struct {
	st       EvaluationStatus
	progress int64
}

// add counts one job.
func (t *tally) add(status JobStatus, progress int64) {
	t.st.Total++
	t.progress += progress
	switch status {
	case StatusScheduled:
		t.st.Scheduled++
	case StatusRunning:
		t.st.Running++
	case StatusFinished:
		t.st.Finished++
	case StatusAborted:
		t.st.Aborted++
	case StatusFailed:
		t.st.Failed++
	}
}

// status is the evaluation's status over the jobs counted so far.
func (t *tally) status(evaluationID string) EvaluationStatus {
	st := t.st
	st.EvaluationID = evaluationID
	if st.Total > 0 {
		st.Progress = float64(t.progress) / float64(st.Total)
	}
	return st
}

// CheckHeartbeats fails every running job whose agent has not reported
// within HeartbeatTimeout. It returns the ids of newly failed jobs. The
// watchdog calls this periodically; tests call it directly with a manual
// clock.
//
// The stale scan — status=running AND heartbeat < cutoff — walks the
// status index's running list and compares the scalar heartbeat column
// of each row: O(running), which is the number of agents working at that
// moment, with no per-job JSON decoding. Each stale id is then failed in
// its own transaction that re-checks the job's status and heartbeat: a
// job that finishes, aborts or heartbeats between the scan and the fail
// is left alone.
func (s *Service) CheckHeartbeats() ([]string, error) {
	if s.met != nil {
		start := time.Now()
		defer func() { s.met.observeSweep(time.Since(start)) }()
	}
	cutoff := s.now().Add(-s.HeartbeatTimeout)
	var stale []string
	err := s.store.db.View(func(tx *relstore.Tx) error {
		return s.store.EachStaleRunningJobID(tx, cutoff, func(id string) bool {
			stale = append(stale, id)
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	var failed []string
	reason := fmt.Sprintf("agent heartbeat lost (timeout %v)", s.HeartbeatTimeout)
	for _, id := range stale {
		err := s.failJob(id, reason, "", EventHeartbeatLost, func(j *Job) bool {
			return j.Status == StatusRunning && j.Heartbeat.Before(cutoff)
		})
		switch {
		case errors.Is(err, errPreconditionChanged), errors.Is(err, ErrNotFound):
			// The job finished, aborted, heartbeat or was pruned between
			// scan and fail; skip it.
			continue
		case err != nil:
			// A real storage failure: surface it (with the jobs failed so
			// far) instead of misreporting the sweep as clean.
			return failed, err
		}
		failed = append(failed, id)
	}
	return failed, nil
}

// StartWatchdog runs CheckHeartbeats every interval until ctx is
// cancelled (requirement iii: reliability for long-running evaluations).
func (s *Service) StartWatchdog(ctx context.Context, interval time.Duration) {
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				// Errors here are transient storage issues; the next tick
				// retries. Failing jobs twice is prevented by the state
				// machine.
				s.CheckHeartbeats()
			}
		}
	}()
}
