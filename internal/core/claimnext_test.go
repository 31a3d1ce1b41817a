package core

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"chronos/internal/params"
	"chronos/internal/relstore"
)

// kinds lists a job's timeline event kinds in order.
func kinds(t *testing.T, svc *Service, jobID string) []EventKind {
	t.Helper()
	tl, err := svc.JobTimeline(jobID)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]EventKind, len(tl))
	for i, e := range tl {
		out[i] = e.Kind
	}
	return out
}

// TestCompleteClaimsNextInOneCommit: a completion that asks for the next
// job closes its own and hands out the queue's oldest in one commit, and
// what it hands out is what ClaimJob would have.
func TestCompleteClaimsNextInOneCommit(t *testing.T) {
	svc, commits := durableService(t)
	_, _, depID, expID := registerDemo(t, svc)
	_, jobs, err := svc.CreateEvaluation(expID)
	if err != nil {
		t.Fatal(err)
	}
	j, _, _ := svc.ClaimJob(depID)
	before := commits.Value()
	next, err := svc.CompleteJobClaimNext(j.ID, []byte(`{"v":1}`), nil, "trailing line\n", depID)
	if err != nil {
		t.Fatal(err)
	}
	if got := commits.Value() - before; got != 1 {
		t.Fatalf("complete + claim made %d commits, want 1", got)
	}
	if next == nil || next.ID != jobs[1].ID {
		t.Fatalf("claimed %+v, want the oldest scheduled job %s", next, jobs[1].ID)
	}
	if next.Status != StatusRunning || next.Attempts != 1 || next.DeploymentID != depID {
		t.Fatalf("claimed job = %+v", next)
	}
	stored, _ := svc.GetJob(next.ID)
	if stored.Status != StatusRunning || stored.Attempts != 1 || stored.DeploymentID != depID || stored.Heartbeat.IsZero() {
		t.Fatalf("stored claimed job = %+v", stored)
	}
	if got := kinds(t, svc, next.ID); !slices.Equal(got, []EventKind{EventCreated, EventClaimed}) {
		t.Fatalf("claimed job's timeline = %v", got)
	}
	done, _ := svc.GetJob(j.ID)
	if done.Status != StatusFinished {
		t.Fatalf("completed job is %s", done.Status)
	}
	if logs, _ := svc.JobLogs(j.ID); len(logs) != 1 || logs[0].Text != "trailing line\n" {
		t.Fatalf("chunks = %+v", logs)
	}
	// The queue moved on: a plain claim gets the job after that one.
	j3, ok, err := svc.ClaimJob(depID)
	if err != nil || !ok || j3.ID != jobs[2].ID {
		t.Fatalf("following claim = %+v %v %v, want %s", j3, ok, err, jobs[2].ID)
	}
	// On an empty queue the completion stands and nothing is claimed.
	j4, _, _ := svc.ClaimJob(depID)
	for _, id := range []string{next.ID, j3.ID} {
		if err := svc.CompleteJob(id, []byte(`{}`), nil); err != nil {
			t.Fatal(err)
		}
	}
	before = commits.Value()
	none, err := svc.CompleteJobClaimNext(j4.ID, []byte(`{}`), nil, "", depID)
	if err != nil || none != nil {
		t.Fatalf("complete on an empty queue = %+v, %v", none, err)
	}
	if got := commits.Value() - before; got != 1 {
		t.Fatalf("complete on an empty queue made %d commits, want 1", got)
	}
}

// lastSegment returns the store directory's newest WAL segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments in %s: %v", dir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

// TestCompleteClaimNextIsAtomicAcrossCrash: complete + claim is one WAL
// record. A store reopened after the record holds both halves; one whose
// record was torn mid-write (the crash test's cut, made on the file the way
// relstore's TestTornWALTailIsDiscarded makes it) holds neither — never a
// finished job with no successor claimed, never a claimed successor of an
// unfinished job.
func TestCompleteClaimNextIsAtomicAcrossCrash(t *testing.T) {
	for _, torn := range []bool{false, true} {
		name := "record durable"
		if torn {
			name = "record torn"
		}
		t.Run(name, func(t *testing.T) {
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
			_, jobs, err := svc.CreateEvaluation(expID)
			if err != nil {
				t.Fatal(err)
			}
			j, _, _ := svc.ClaimJob(depID)
			seg := lastSegment(t, dir)
			before, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := svc.CompleteJobClaimNext(j.ID, []byte(`{"v":1}`), nil, "bye\n", depID); err != nil {
				t.Fatal(err)
			}
			db.Close()
			if lastSegment(t, dir) != seg {
				t.Fatal("the WAL rotated inside the test; the cut below would miss the record")
			}
			after, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if after.Size() <= before.Size() {
				t.Fatalf("segment did not grow: %d -> %d", before.Size(), after.Size())
			}
			if torn {
				if err := os.Truncate(seg, before.Size()+(after.Size()-before.Size())/2); err != nil {
					t.Fatal(err)
				}
			}

			db2, err := relstore.Open(dir, nil)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db2.Close()
			svc2, err := NewService(db2, nil)
			if err != nil {
				t.Fatal(err)
			}
			first, _ := svc2.GetJob(j.ID)
			second, _ := svc2.GetJob(jobs[1].ID)
			_, resErr := svc2.GetJobResult(j.ID)
			logs, _ := svc2.JobLogs(j.ID)
			if torn {
				if first.Status != StatusRunning || second.Status != StatusScheduled || second.Attempts != 0 ||
					!errors.Is(resErr, ErrNotFound) || len(logs) != 0 {
					t.Fatalf("torn record left a part behind: completed job %s, next %s/%d attempts, result %v, %d chunk(s)",
						first.Status, second.Status, second.Attempts, resErr, len(logs))
				}
				// The agent's retry after the restart does both again.
				next, err := svc2.CompleteJobClaimNext(j.ID, []byte(`{"v":1}`), nil, "bye\n", depID)
				if err != nil || next == nil || next.ID != second.ID {
					t.Fatalf("retry after the crash = %+v, %v", next, err)
				}
				return
			}
			if first.Status != StatusFinished || second.Status != StatusRunning || second.Attempts != 1 ||
				second.DeploymentID != depID || resErr != nil || len(logs) != 1 {
				t.Fatalf("durable record lost a part: completed job %s, next %s/%d attempts on %q, result %v, %d chunk(s)",
					first.Status, second.Status, second.Attempts, second.DeploymentID, resErr, len(logs))
			}
		})
	}
}

// TestRefusedCompleteClaimsNothing: the claim runs only once the finish is
// accepted. A completion the state machine refuses keeps its log, answers
// the refusal and leaves the queue alone.
func TestRefusedCompleteClaimsNothing(t *testing.T) {
	svc, commits := durableService(t)
	_, _, depID, expID := registerDemo(t, svc)
	_, jobs, err := svc.CreateEvaluation(expID)
	if err != nil {
		t.Fatal(err)
	}
	j, _, _ := svc.ClaimJob(depID)
	if err := svc.AbortJob(j.ID); err != nil {
		t.Fatal(err)
	}
	before := commits.Value()
	next, err := svc.CompleteJobClaimNext(j.ID, []byte(`{"v":1}`), nil, "last words\n", depID)
	if !errors.Is(err, ErrInvalidTransition) || next != nil {
		t.Fatalf("completing an aborted job = %+v, %v, want nothing and ErrInvalidTransition", next, err)
	}
	if got := commits.Value() - before; got != 1 {
		t.Fatalf("refused call made %d commits, want 1 (the log)", got)
	}
	if logs, _ := svc.JobLogs(j.ID); len(logs) != 1 || logs[0].Text != "last words\n" {
		t.Fatalf("chunks = %+v, want the one the refused call carried", logs)
	}
	for _, q := range jobs[1:] {
		got, _ := svc.GetJob(q.ID)
		if got.Status != StatusScheduled || got.Attempts != 0 {
			t.Fatalf("refused completion claimed %s: %+v", q.ID, got)
		}
	}
}

// TestCompleteClaimNextForNoUsableDeployment: asking for the next job of a
// deployment that does not exist or is disabled never fails the completion
// it rides; nothing is claimed, and the agent's following ClaimJob is what
// tells it why.
func TestCompleteClaimNextForNoUsableDeployment(t *testing.T) {
	svc, commits := durableService(t)
	_, sysID, depID, expID := registerDemo(t, svc)
	_, jobs, err := svc.CreateEvaluation(expID)
	if err != nil {
		t.Fatal(err)
	}
	off, err := svc.CreateDeployment(sysID, "off", "sim", "4.0")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.SetDeploymentActive(off.ID, false); err != nil {
		t.Fatal(err)
	}
	for _, claimFor := range []string{"deployment-missing", off.ID} {
		j, ok, err := svc.ClaimJob(depID)
		if err != nil || !ok {
			t.Fatal(ok, err)
		}
		before := commits.Value()
		next, err := svc.CompleteJobClaimNext(j.ID, []byte(`{"v":1}`), nil, "", claimFor)
		if err != nil || next != nil {
			t.Fatalf("claimNext %q = %+v, %v, want nothing and no error", claimFor, next, err)
		}
		if got := commits.Value() - before; got != 1 {
			t.Fatalf("claimNext %q made %d commits, want 1", claimFor, got)
		}
		if got, _ := svc.GetJob(j.ID); got.Status != StatusFinished {
			t.Fatalf("claimNext %q: completed job is %s", claimFor, got.Status)
		}
	}
	for _, q := range jobs[2:] {
		if got, _ := svc.GetJob(q.ID); got.Status != StatusScheduled {
			t.Fatalf("job %s was claimed for an unusable deployment: %+v", q.ID, got)
		}
	}
	if _, _, err := svc.ClaimJob(off.ID); !errors.Is(err, ErrInactiveDeployment) {
		t.Fatalf("claim for the disabled deployment: %v", err)
	}
}

// TestConcurrentCompletesShareOneJob: two completions racing for a queue
// of one — exactly one of them gets it.
func TestConcurrentCompletesShareOneJob(t *testing.T) {
	for round := 0; round < 20; round++ {
		svc, _ := newTestService(t)
		_, _, depID, expID := registerDemo(t, svc)
		_, jobs, err := svc.CreateEvaluation(expID) // 4 jobs
		if err != nil {
			t.Fatal(err)
		}
		a, _, _ := svc.ClaimJob(depID)
		b, _, _ := svc.ClaimJob(depID)
		c, _, _ := svc.ClaimJob(depID)
		if err := svc.CompleteJob(c.ID, []byte(`{}`), nil); err != nil {
			t.Fatal(err)
		}
		var (
			wg   sync.WaitGroup
			next [2]*Job
			errs [2]error
		)
		for i, id := range []string{a.ID, b.ID} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				next[i], errs[i] = svc.CompleteJobClaimNext(id, []byte(`{}`), nil, "", depID)
			}()
		}
		wg.Wait()
		if errs[0] != nil || errs[1] != nil {
			t.Fatal(errs)
		}
		if (next[0] == nil) == (next[1] == nil) {
			t.Fatalf("round %d: one job left, handed out %+v and %+v", round, next[0], next[1])
		}
		got := next[0]
		if got == nil {
			got = next[1]
		}
		if got.ID != jobs[3].ID || got.Attempts != 1 {
			t.Fatalf("round %d: handed out %+v, want %s at attempt 1", round, got, jobs[3].ID)
		}
	}
}

// TestReleaseJob: only a running job is handed back, and it returns to the
// queue as it was before the claim — first in line, no deployment, no
// start, no heartbeat for the watchdog to time out, attempt not spent.
func TestReleaseJob(t *testing.T) {
	svc, clock := newTestService(t)
	_, _, depID, expID := registerDemo(t, svc)
	_, jobs, err := svc.CreateEvaluation(expID)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.ReleaseJob("job-missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("release of a missing job: %v", err)
	}
	if err := svc.ReleaseJob(jobs[0].ID); !errors.Is(err, ErrInvalidTransition) {
		t.Fatalf("release of a scheduled job: %v", err)
	}

	j, _, _ := svc.ClaimJob(depID)
	if _, err := svc.Progress(j.ID, 30); err != nil {
		t.Fatal(err)
	}
	if err := svc.RescheduleJob(j.ID); !errors.Is(err, ErrInvalidTransition) {
		t.Fatalf("re-schedule of a running job: %v (only a release returns one to the queue)", err)
	}
	if err := svc.ReleaseJob(j.ID); err != nil {
		t.Fatal(err)
	}
	got, _ := svc.GetJob(j.ID)
	if got.Status != StatusScheduled || got.Attempts != 0 || got.DeploymentID != "" ||
		got.Progress != 0 || !got.Started.IsZero() || !got.Heartbeat.IsZero() {
		t.Fatalf("released job = %+v", got)
	}
	if got := kinds(t, svc, j.ID); !slices.Equal(got, []EventKind{EventCreated, EventClaimed, EventReleased}) {
		t.Fatalf("released job's timeline = %v", got)
	}
	// Nothing for the watchdog: the job is not running.
	clock.Advance(2 * svc.HeartbeatTimeout)
	if failed, err := svc.CheckHeartbeats(); err != nil || len(failed) != 0 {
		t.Fatalf("watchdog after a release = %v, %v", failed, err)
	}
	// It is first in line again, at the attempt it never used.
	again, ok, err := svc.ClaimJob(depID)
	if err != nil || !ok || again.ID != j.ID || again.Attempts != 1 {
		t.Fatalf("claim after release = %+v %v %v, want %s at attempt 1", again, ok, err, j.ID)
	}

	if err := svc.CompleteJob(again.ID, []byte(`{}`), nil); err != nil {
		t.Fatal(err)
	}
	if err := svc.ReleaseJob(again.ID); !errors.Is(err, ErrInvalidTransition) {
		t.Fatalf("release of a finished job: %v", err)
	}
	// A failed job goes back by RescheduleJob, not by a release that would
	// also take an attempt off it.
	f, _, _ := svc.ClaimJob(depID)
	for range svc.DefaultMaxAttempts - 1 {
		if err := svc.FailJob(f.ID, "boom"); err != nil {
			t.Fatal(err)
		}
		if f, _, _ = svc.ClaimJob(depID); f == nil {
			t.Fatal("failed job not re-scheduled")
		}
	}
	if err := svc.FailJob(f.ID, "boom"); err != nil {
		t.Fatal(err)
	}
	if err := svc.ReleaseJob(f.ID); !errors.Is(err, ErrInvalidTransition) {
		t.Fatalf("release of a failed job: %v", err)
	}
	if got, _ := svc.GetJob(f.ID); got.Status != StatusFailed || got.Attempts != int64(svc.DefaultMaxAttempts) {
		t.Fatalf("refused release changed the job: %+v", got)
	}
}

// TestReleaseKeepsTheOneAttempt: under maxAttempts 1 — what every benchmark
// experiment uses — a job claimed ahead and handed back still gets its one
// real attempt, and that attempt, failing, is still its last.
func TestReleaseKeepsTheOneAttempt(t *testing.T) {
	svc, _ := newTestService(t)
	projectID, sysID, depID, _ := registerDemo(t, svc)
	exp, err := svc.CreateExperiment(projectID, sysID, "one shot", "",
		map[string][]params.Value{"threads": {params.Int(1)}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, jobs, err := svc.CreateEvaluation(exp.ID)
	if err != nil || len(jobs) != 1 {
		t.Fatal(len(jobs), err)
	}
	ahead, _, _ := svc.ClaimJob(depID)
	if err := svc.ReleaseJob(ahead.ID); err != nil {
		t.Fatal(err)
	}
	j, ok, err := svc.ClaimJob(depID)
	if err != nil || !ok || j.ID != jobs[0].ID || j.Attempts != 1 {
		t.Fatalf("claim after release = %+v %v %v", j, ok, err)
	}
	if err := svc.FailJob(j.ID, "disk exploded"); err != nil {
		t.Fatal(err)
	}
	got, _ := svc.GetJob(j.ID)
	if got.Status != StatusFailed || got.Attempts != 1 {
		t.Fatalf("job after its one real attempt failed = %+v, want failed at 1 attempt", got)
	}
	if _, ok, _ := svc.ClaimJob(depID); ok {
		t.Fatal("a job with one attempt ran twice")
	}
}
