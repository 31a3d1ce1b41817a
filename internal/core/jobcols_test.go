package core

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"chronos/internal/metrics"
	"chronos/internal/relstore"
)

// jobModel is the job state machine kept beside a store: every job and
// result as the service must answer them.
type jobModel struct {
	now     func() time.Time
	budget  int64
	jobs    map[string]*Job
	results map[string]*Result
}

// claim is the model's claim: the oldest scheduled job is granted.
func (m *jobModel) claim(depID string) *Job {
	var first *Job
	for _, j := range m.jobs {
		if j.Status == StatusScheduled && (first == nil || j.ID < first.ID) {
			first = j
		}
	}
	if first == nil {
		return nil
	}
	now := m.now()
	first.Status, first.DeploymentID, first.Started, first.Heartbeat, first.Progress = StatusRunning, depID, now, now, 0
	first.Attempts++
	return first
}

func (m *jobModel) complete(id string, doc, archive []byte) {
	j := m.jobs[id]
	j.Status, j.Progress, j.Finished = StatusFinished, 100, m.now()
	m.results[id] = &Result{JobID: id, JSON: doc, Archive: archive, Uploaded: m.now()}
}

func (m *jobModel) fail(id, reason string) {
	j := m.jobs[id]
	j.Status, j.Error, j.Finished, j.DeploymentID = StatusFailed, reason, m.now(), ""
	if j.Attempts < m.budget {
		j.Status, j.Error, j.Progress = StatusScheduled, "", 0
	}
}

// withStatus returns the ids of the jobs in a status, in id order.
func (m *jobModel) withStatus(st JobStatus) []string {
	var ids []string
	for id, j := range m.jobs {
		if j.Status == st {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// sameJSON fails t unless got and want marshal to the same bytes.
func sameJSON(t *testing.T, what string, got, want any) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s is\n%s\nwant\n%s", what, g, w)
	}
}

// check compares every read of the store with the model: each job and
// result alone, each evaluation's job list and status.
func (m *jobModel) check(t *testing.T, svc *Service, evals []string, step string) {
	t.Helper()
	same := func(what string, got, want any) {
		t.Helper()
		sameJSON(t, step+": "+what, got, want)
	}
	for id, want := range m.jobs {
		got, err := svc.GetJob(id)
		if err != nil {
			t.Fatalf("%s: GetJob(%s): %v", step, id, err)
		}
		same("GetJob("+id+")", got, want)
		res, err := svc.GetJobResult(id)
		if wantRes := m.results[id]; wantRes == nil {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s: result of %s = %+v, %v; want none", step, id, res, err)
			}
		} else if err != nil {
			t.Fatalf("%s: GetJobResult(%s): %v", step, id, err)
		} else {
			same("GetJobResult("+id+")", res, wantRes)
		}
	}
	for _, ev := range evals {
		var want []*Job
		for _, j := range m.jobs {
			if j.EvaluationID == ev {
				want = append(want, j)
			}
		}
		slices.SortFunc(want, func(a, b *Job) int { return cmp.Compare(a.ID, b.ID) })
		got, err := svc.ListJobs(ev)
		if err != nil {
			t.Fatal(err)
		}
		same("ListJobs("+ev+")", got, want)
		st, err := svc.EvaluationStatusOf(ev)
		if err != nil {
			t.Fatal(err)
		}
		same("EvaluationStatusOf("+ev+")", st, StatusOfJobs(ev, want))
	}
}

// TestJobColumnsRoundTrip drives a durable store through random job
// transitions of every kind — claim, claim-next, progress, heartbeat,
// complete, fail with and without a retry left, watchdog, abort, release,
// reschedule — and after each compares the JSON of GetJob, GetJobResult,
// ListJobs and EvaluationStatusOf with a model of the state machine. The
// model's JSON is what the service answered when a job was one JSON blob:
// zero times stay the zero time, a nil result document null and an empty
// one "", and a job that stops running keeps its last heartbeat. The store
// is reopened at the end and compared once more, so the columns hold
// through the WAL as well.
func TestJobColumnsRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			db, err := relstore.Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			clock := metrics.NewManualClock(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC))
			svc, err := NewService(db, clock.Now)
			if err != nil {
				t.Fatal(err)
			}
			_, _, depID, expID := registerDemo(t, svc)
			m := &jobModel{now: svc.now, budget: 3, jobs: map[string]*Job{}, results: map[string]*Result{}}
			var evals []string
			for i := 0; i < 4; i++ {
				ev, jobs, err := svc.CreateEvaluation(expID)
				if err != nil {
					t.Fatal(err)
				}
				evals = append(evals, ev.ID)
				for _, j := range jobs {
					cp := *j
					m.jobs[j.ID] = &cp
				}
			}
			m.check(t, svc, evals, "created")
			pick := func(st JobStatus) (string, bool) {
				ids := m.withStatus(st)
				if len(ids) == 0 {
					return "", false
				}
				return ids[r.Intn(len(ids))], true
			}
			docs := [][]byte{nil, {}, []byte(`{"throughput":7}`)}
			archives := [][]byte{nil, []byte("PK\x03\x04zip")}
			for step := 0; step < 150; step++ {
				clock.Advance(time.Duration(r.Intn(5000)+1) * time.Microsecond)
				var op string
				switch k := r.Intn(11); k {
				case 0, 1:
					op = "claim"
					got, _, err := svc.ClaimJob(depID)
					if err != nil {
						t.Fatalf("step %d claim: %v", step, err)
					}
					sameJSON(t, fmt.Sprintf("step %d: the claimed job", step), got, m.claim(depID))
				case 2:
					op = "claim-next"
					if id, ok := pick(StatusRunning); ok {
						doc, arch := docs[r.Intn(len(docs))], archives[r.Intn(len(archives))]
						got, _, err := svc.CompleteJobClaimNext(id, doc, arch, "", depID)
						if err != nil {
							t.Fatalf("step %d claim-next: %v", step, err)
						}
						m.complete(id, doc, arch)
						sameJSON(t, fmt.Sprintf("step %d: the job claimed next", step), got, m.claim(depID))
					}
				case 3:
					op = "complete"
					if id, ok := pick(StatusRunning); ok {
						doc, arch := docs[r.Intn(len(docs))], archives[r.Intn(len(archives))]
						if err := svc.CompleteJob(id, doc, arch); err != nil {
							t.Fatalf("step %d complete: %v", step, err)
						}
						m.complete(id, doc, arch)
					}
				case 4:
					op = "progress"
					if id, ok := pick(StatusRunning); ok {
						p := int64(r.Intn(120) - 10)
						if _, err := svc.Progress(id, p); err != nil {
							t.Fatalf("step %d progress: %v", step, err)
						}
						m.jobs[id].Progress, m.jobs[id].Heartbeat = min(max(p, 0), 100), m.now()
					}
				case 5:
					op = "heartbeat"
					if id, ok := pick(StatusRunning); ok {
						if _, err := svc.Heartbeat(id); err != nil {
							t.Fatalf("step %d heartbeat: %v", step, err)
						}
						m.jobs[id].Heartbeat = m.now()
					}
				case 6:
					op = "fail"
					if id, ok := pick(StatusRunning); ok {
						if err := svc.FailJob(id, "boom"); err != nil {
							t.Fatalf("step %d fail: %v", step, err)
						}
						m.fail(id, "boom")
					}
				case 7:
					op = "watchdog"
					clock.Advance(time.Duration(r.Intn(40)) * time.Second)
					failed, err := svc.CheckHeartbeats()
					if err != nil {
						t.Fatalf("step %d watchdog: %v", step, err)
					}
					cutoff := m.now().Add(-svc.HeartbeatTimeout)
					var want []string
					for _, id := range m.withStatus(StatusRunning) {
						if m.jobs[id].Heartbeat.Before(cutoff) {
							want = append(want, id)
							m.fail(id, fmt.Sprintf("agent heartbeat lost (timeout %v)", svc.HeartbeatTimeout))
						}
					}
					if !slices.Equal(failed, want) {
						t.Fatalf("step %d: watchdog failed %v, want %v", step, failed, want)
					}
				case 8:
					op = "abort"
					st := StatusScheduled
					if r.Intn(2) == 0 {
						st = StatusRunning
					}
					if id, ok := pick(st); ok {
						if err := svc.AbortJob(id); err != nil {
							t.Fatalf("step %d abort: %v", step, err)
						}
						m.jobs[id].Status, m.jobs[id].Finished = StatusAborted, m.now()
					}
				case 9:
					op = "release"
					if id, ok := pick(StatusRunning); ok {
						if err := svc.ReleaseJob(id); err != nil {
							t.Fatalf("step %d release: %v", step, err)
						}
						j := m.jobs[id]
						j.Status, j.DeploymentID, j.Started, j.Heartbeat, j.Progress = StatusScheduled, "", time.Time{}, time.Time{}, 0
						j.Attempts--
					}
				case 10:
					op = "reschedule"
					if id, ok := pick(StatusFailed); ok {
						if err := svc.RescheduleJob(id); err != nil {
							t.Fatalf("step %d reschedule: %v", step, err)
						}
						j := m.jobs[id]
						j.Status, j.Error, j.Progress, j.DeploymentID = StatusScheduled, "", 0, ""
					}
				}
				m.check(t, svc, evals, fmt.Sprintf("step %d after %s", step, op))
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db2, err := relstore.Open(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			svc2, err := NewService(db2, clock.Now)
			if err != nil {
				t.Fatal(err)
			}
			m.check(t, svc2, evals, "after a reopen")
		})
	}
}

// TestAgentPathDecodesNoJobJSON: the stored params of running jobs are
// replaced by bytes that are not JSON, and every call about a running job
// still succeeds — progress, a heartbeat, fail, complete with claimNext,
// release, the watchdog, abort and re-schedule — as does the evaluation's
// status over an evaluation whose every job is unparsable. None of them
// could if it decoded a job. A reader does decode the params, so GetJob of
// such a job fails; and a claim decodes exactly the claimed job's.
func TestAgentPathDecodesNoJobJSON(t *testing.T) {
	svc, clock := newTestService(t)
	depID, _, evID := sweepFixture(t, svc, 12, 1)
	corrupt := func(ids ...string) {
		t.Helper()
		err := svc.store.db.Update(func(tx *relstore.Tx) error {
			for _, id := range ids {
				row, err := tx.Get(tableJobs, id)
				if err != nil {
					return err
				}
				row["params"] = []byte("{not json")
				if err := tx.Put(tableJobs, row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var running []string
	for i := 0; i < 6; i++ {
		j, ok, err := svc.ClaimJob(depID)
		if err != nil || !ok {
			t.Fatalf("claim: %v %v", ok, err)
		}
		running = append(running, j.ID)
	}
	corrupt(running...)
	a, b, c, d, e, f := running[0], running[1], running[2], running[3], running[4], running[5]

	if _, err := svc.UpdateJob(a, nil, "log line\n"); err != nil {
		t.Fatalf("heartbeat with a log: %v", err)
	}
	if _, err := svc.Progress(a, 50); err != nil {
		t.Fatalf("progress: %v", err)
	}
	if err := svc.FailJobWithLog(b, "boom", "last words\n"); err != nil {
		t.Fatalf("fail: %v", err)
	}
	next, _, err := svc.CompleteJobClaimNext(c, []byte(`{}`), nil, "bye\n", depID)
	if err != nil || next == nil || len(next.Params) == 0 {
		t.Fatalf("complete with claimNext = %+v, %v; want the next job, its params decoded", next, err)
	}
	if err := svc.ReleaseJob(d); err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := svc.AbortJob(e); err != nil {
		t.Fatalf("abort: %v", err)
	}
	if err := svc.RescheduleJob(b); err != nil {
		t.Fatalf("re-schedule: %v", err)
	}
	clock.Advance(svc.HeartbeatTimeout + time.Second)
	if failed, err := svc.CheckHeartbeats(); err != nil || !slices.Equal(failed, []string{a, f, next.ID}) {
		t.Fatalf("watchdog failed %v, %v; want %v", failed, err, []string{a, f, next.ID})
	}

	var all []string
	err = svc.store.db.View(func(tx *relstore.Tx) error {
		return tx.SelectFunc(tableJobs, relstore.NewQuery().Eq("evaluationId", evID), func(row relstore.Row) bool {
			all = append(all, row["id"].(string))
			return true
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	corrupt(all...)
	st, err := svc.EvaluationStatusOf(evID)
	want := EvaluationStatus{EvaluationID: evID, Total: 12, Scheduled: 7, Finished: 1, Aborted: 1, Failed: 3, Progress: 150.0 / 12}
	if err != nil || st != want {
		t.Fatalf("status over unparsable jobs = %+v, %v; want %+v", st, err, want)
	}
	if _, err := svc.GetJob(a); err == nil {
		t.Fatal("GetJob of a job with unparsable params decoded nothing")
	}
	if _, _, err := svc.ClaimJob(depID); err == nil {
		t.Fatal("a claim of a job with unparsable params answered no error")
	}
}

// claimNextFixture is an agent in steady state on a memory store: one job
// of a 1,000-job evaluation running, the rest scheduled.
type claimNextFixture struct {
	svc          *Service
	depID, expID string
	running      string
}

func newClaimNextFixture(tb testing.TB) *claimNextFixture {
	tb.Helper()
	svc, err := NewService(relstore.OpenMemory(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	f := &claimNextFixture{svc: svc}
	f.depID, f.expID, _ = sweepFixture(tb, svc, 1000, 0)
	f.claim(tb)
	return f
}

// claim claims the deployment's next job by hand.
func (f *claimNextFixture) claim(tb testing.TB) {
	tb.Helper()
	j, ok, err := f.svc.ClaimJob(f.depID)
	if err != nil || !ok {
		tb.Fatalf("claim: %v %v", ok, err)
	}
	f.running = j.ID
}

var claimNextResult = []byte(`{"throughput":1}`)

// step completes the running job and claims the next in its transaction,
// the call a steady-state agent makes once per job. It reports false when
// the queue ran dry.
func (f *claimNextFixture) step(tb testing.TB) bool {
	next, _, err := f.svc.CompleteJobClaimNext(f.running, claimNextResult, nil, "", f.depID)
	if err != nil {
		tb.Fatal(err)
	}
	if next == nil {
		return false
	}
	f.running = next.ID
	return true
}

// BenchmarkCompleteClaimNext is a steady-state agent's one call per job on
// a memory store: complete the running job and claim the deployment's
// next in the same transaction.
func BenchmarkCompleteClaimNext(b *testing.B) {
	f := newClaimNextFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.step(b) {
			b.StopTimer()
			if _, _, err := f.svc.CreateEvaluation(f.expID); err != nil {
				b.Fatal(err)
			}
			f.claim(b)
			b.StartTimer()
		}
	}
}

// TestCompleteClaimNextAllocs pins the allocations of a steady-state
// complete with claimNext (BenchmarkCompleteClaimNext's call) at 95, the
// 87 it makes plus 10 %. It made 148 while the transaction encoded and
// decoded both jobs' JSON. Allocation counts do not depend on the host's
// speed, so the bound is exact.
func TestCompleteClaimNextAllocs(t *testing.T) {
	f := newClaimNextFixture(t)
	if got := testing.AllocsPerRun(200, func() { f.step(t) }); got > 95 {
		t.Errorf("complete with claimNext: %v allocs/op, want <= 95", got)
	}
}
