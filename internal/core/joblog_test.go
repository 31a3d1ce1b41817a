package core

import (
	"errors"
	"testing"

	"chronos/internal/metrics"
	"chronos/internal/relstore"
)

// durableService is a service over a disk-backed store whose commits are
// counted, for tests that pin how many transactions a call is.
func durableService(t *testing.T) (*Service, *metrics.Counter) {
	t.Helper()
	reg := metrics.NewRegistry()
	db, err := relstore.Open(t.TempDir(), &relstore.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	svc, err := NewService(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	return svc, reg.Counter("chronos_store_commits_total", "")
}

// TestLogRidesItsCall pins the log-carrying form of the three agent calls
// a log can ride: the chunk and the call's state change are one commit, the
// chunk takes the store's next log sequence number, and a call carrying no
// log stores no chunk.
func TestLogRidesItsCall(t *testing.T) {
	pct := int64(40)
	for _, tc := range []struct {
		name string
		call func(svc *Service, jobID, log string) error
		want JobStatus
	}{
		{"progress", func(svc *Service, id, log string) error {
			st, err := svc.UpdateJob(id, &pct, log)
			if err == nil && st != StatusRunning {
				err = errors.New("status answered " + string(st))
			}
			return err
		}, StatusRunning},
		{"complete", func(svc *Service, id, log string) error {
			return svc.CompleteJobWithLog(id, []byte(`{"v":1}`), nil, log)
		}, StatusFinished},
		// One failed attempt of three: the job is re-scheduled.
		{"fail", func(svc *Service, id, log string) error {
			return svc.FailJobWithLog(id, "disk exploded", log)
		}, StatusScheduled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, commits := durableService(t)
			_, _, depID, expID := registerDemo(t, svc)
			if _, _, err := svc.CreateEvaluation(expID); err != nil {
				t.Fatal(err)
			}
			// Earlier chunks of the store, on another job.
			other, _, _ := svc.ClaimJob(depID)
			for _, text := range []string{"a\n", "b\n"} {
				if err := svc.AppendJobLog(other.ID, text); err != nil {
					t.Fatal(err)
				}
			}
			earlier, _ := svc.JobLogs(other.ID)

			j, _, _ := svc.ClaimJob(depID)
			before := commits.Value()
			if err := tc.call(svc, j.ID, "trailing line\n"); err != nil {
				t.Fatal(err)
			}
			if got := commits.Value() - before; got != 1 {
				t.Fatalf("call with a log made %d commits, want 1", got)
			}
			got, _ := svc.GetJob(j.ID)
			if got.Status != tc.want {
				t.Fatalf("job is %s, want %s", got.Status, tc.want)
			}
			if tc.name == "progress" && got.Progress != pct {
				t.Fatalf("progress = %d, want %d", got.Progress, pct)
			}
			logs, _ := svc.JobLogs(j.ID)
			if len(logs) != 1 || logs[0].Text != "trailing line\n" {
				t.Fatalf("chunks = %+v, want the one carried", logs)
			}
			if last := earlier[len(earlier)-1].Seq; logs[0].Seq <= last {
				t.Fatalf("carried chunk has seq %d, not after the store's earlier chunk %d", logs[0].Seq, last)
			}

			// The same call with nothing to carry: one commit, no chunk
			// (the failed job was re-scheduled, so this may be it again).
			j2, _, _ := svc.ClaimJob(depID)
			had, _ := svc.JobLogs(j2.ID)
			before = commits.Value()
			if err := tc.call(svc, j2.ID, ""); err != nil {
				t.Fatal(err)
			}
			if got := commits.Value() - before; got != 1 {
				t.Fatalf("call without a log made %d commits, want 1", got)
			}
			if logs, _ := svc.JobLogs(j2.ID); len(logs) != len(had) {
				t.Fatalf("empty log stored %d chunk(s)", len(logs)-len(had))
			}
		})
	}
}

// TestRefusedCompleteKeepsItsLog: a closing call the state machine refuses
// (the job was aborted under the agent) still stores the log it carried and
// still answers the refusal — what a separate log request sent just before
// would have left behind.
func TestRefusedCompleteKeepsItsLog(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(svc *Service, jobID string) error
	}{
		{"complete", func(svc *Service, id string) error {
			return svc.CompleteJobWithLog(id, []byte(`{"v":1}`), nil, "last words\n")
		}},
		{"fail", func(svc *Service, id string) error {
			return svc.FailJobWithLog(id, "disk exploded", "last words\n")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, commits := durableService(t)
			_, _, depID, expID := registerDemo(t, svc)
			if _, _, err := svc.CreateEvaluation(expID); err != nil {
				t.Fatal(err)
			}
			j, _, _ := svc.ClaimJob(depID)
			if err := svc.AbortJob(j.ID); err != nil {
				t.Fatal(err)
			}
			before := commits.Value()
			if err := tc.call(svc, j.ID); !errors.Is(err, ErrInvalidTransition) {
				t.Fatalf("closing an aborted job: %v, want ErrInvalidTransition", err)
			}
			if got := commits.Value() - before; got != 1 {
				t.Fatalf("refused call made %d commits, want 1 (the log)", got)
			}
			got, _ := svc.GetJob(j.ID)
			if got.Status != StatusAborted || got.Error != "" {
				t.Fatalf("aborted job mutated: %+v", got)
			}
			if _, err := svc.GetJobResult(j.ID); !errors.Is(err, ErrNotFound) {
				t.Fatalf("refused complete left a result: %v", err)
			}
			logs, _ := svc.JobLogs(j.ID)
			if len(logs) != 1 || logs[0].Text != "last words\n" {
				t.Fatalf("chunks = %+v, want the one the refused call carried", logs)
			}
			// A status report on the closed job keeps its log the same way.
			if st, err := svc.UpdateJob(j.ID, nil, "later\n"); err != nil || st != StatusAborted {
				t.Fatalf("update on aborted job = %v, %v", st, err)
			}
			if logs, _ := svc.JobLogs(j.ID); len(logs) != 2 {
				t.Fatalf("update on an aborted job dropped its log: %d chunk(s)", len(logs))
			}
		})
	}
	// A call aimed at no job at all stores nothing.
	svc, commits := durableService(t)
	before := commits.Value()
	if err := svc.CompleteJobWithLog("job-missing", nil, nil, "x\n"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("complete on a missing job: %v", err)
	}
	if got := commits.Value() - before; got != 0 {
		t.Fatalf("call on a missing job made %d commit(s)", got)
	}
}
