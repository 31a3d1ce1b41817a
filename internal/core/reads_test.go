package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos/internal/params"
	"chronos/internal/relstore"
)

// sweepFixture registers a system whose experiment expands to n jobs and
// submits it once: a service, a deployment of the system, the experiment
// and the evaluation.
func sweepFixture(tb testing.TB, svc *Service, n, maxAttempts int) (depID, expID, evID string) {
	tb.Helper()
	u, err := svc.CreateUser("sweeper", RoleAdmin)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := svc.CreateProject("sweep", "", u.ID, nil)
	if err != nil {
		tb.Fatal(err)
	}
	defs := []params.Definition{{Name: "idx", Type: params.TypeInterval, Min: 1, Max: 1 << 30, Default: params.Int(1)}}
	sys, err := svc.RegisterSystem("sue", "", defs, nil)
	if err != nil {
		tb.Fatal(err)
	}
	dep, err := svc.CreateDeployment(sys.ID, "d", "", "")
	if err != nil {
		tb.Fatal(err)
	}
	vals := make([]params.Value, n)
	for i := range vals {
		vals[i] = params.Int(int64(i) + 1)
	}
	exp, err := svc.CreateExperiment(p.ID, sys.ID, "e", "", map[string][]params.Value{"idx": vals}, maxAttempts)
	if err != nil {
		tb.Fatal(err)
	}
	ev, _, err := svc.CreateEvaluation(exp.ID)
	if err != nil {
		tb.Fatal(err)
	}
	return dep.ID, exp.ID, ev.ID
}

// bruteStatus is the reference: it aggregates an evaluation by decoding
// every job row in the store.
func bruteStatus(t *testing.T, svc *Service, evID string) EvaluationStatus {
	t.Helper()
	st := EvaluationStatus{EvaluationID: evID}
	var progress int64
	err := svc.store.db.View(func(tx *relstore.Tx) error {
		rows, err := tx.Select(tableJobs, relstore.NewQuery().Eq("evaluationId", evID))
		for _, row := range rows {
			var j Job
			if err := json.Unmarshal(row["data"].([]byte), &j); err != nil {
				return err
			}
			st.Total++
			progress += j.Progress
			switch j.Status {
			case StatusScheduled:
				st.Scheduled++
			case StatusRunning:
				st.Running++
			case StatusFinished:
				st.Finished++
			case StatusAborted:
				st.Aborted++
			case StatusFailed:
				st.Failed++
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total > 0 {
		st.Progress = float64(progress) / float64(st.Total)
	}
	return st
}

// TestEvaluationStatusMatchesBruteForce drives two evaluations of one
// system through random transitions of every kind and checks after each
// that EvaluationStatusOf — which counts the status column and decodes
// only running, failed and aborted jobs — equals a decode of every job,
// JSON bytes included, and that StatusOfJobs over the listed jobs does too.
func TestEvaluationStatusMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			svc, clock := newTestService(t)
			svc.HeartbeatTimeout = 30 * time.Second
			depID, expID, ev1 := sweepFixture(t, svc, 24, 2)
			ev2, _, err := svc.CreateEvaluation(expID)
			if err != nil {
				t.Fatal(err)
			}
			evals := []string{ev1, ev2.ID}
			withStatus := func(status JobStatus) []string {
				var ids []string
				for _, ev := range evals {
					jobs, err := svc.ListJobs(ev)
					if err != nil {
						t.Fatal(err)
					}
					for _, j := range jobs {
						if j.Status == status {
							ids = append(ids, j.ID)
						}
					}
				}
				return ids
			}
			pick := func(status JobStatus) (string, bool) {
				ids := withStatus(status)
				if len(ids) == 0 {
					return "", false
				}
				return ids[r.Intn(len(ids))], true
			}
			for step := 0; step < 150; step++ {
				var op string
				switch k := r.Intn(10); k {
				case 0, 1:
					op = "claim"
					_, _, err = svc.ClaimJob(depID)
				case 2:
					op = "progress"
					if id, ok := pick(StatusRunning); ok {
						_, err = svc.Progress(id, int64(r.Intn(120)-10))
					}
				case 3:
					op = "complete"
					if id, ok := pick(StatusRunning); ok {
						err = svc.CompleteJob(id, []byte(`{"n":1}`), nil)
					}
				case 4:
					op = "claim-next"
					if id, ok := pick(StatusRunning); ok {
						_, err = svc.CompleteJobClaimNext(id, []byte(`{"n":1}`), nil, "", depID)
					}
				case 5:
					// With a budget of 2 a first failure retries and a
					// second one sticks.
					op = "fail"
					if id, ok := pick(StatusRunning); ok {
						err = svc.FailJob(id, "boom")
					}
				case 6:
					op = "watchdog"
					clock.Advance(time.Duration(r.Intn(40)) * time.Second)
					_, err = svc.CheckHeartbeats()
				case 7:
					op = "abort"
					status := StatusScheduled
					if r.Intn(2) == 0 {
						status = StatusRunning
					}
					if id, ok := pick(status); ok {
						err = svc.AbortJob(id)
					}
				case 8:
					op = "release"
					if id, ok := pick(StatusRunning); ok {
						err = svc.ReleaseJob(id)
					}
				case 9:
					op = "reschedule"
					if id, ok := pick(StatusFailed); ok {
						err = svc.RescheduleJob(id)
					}
				}
				if err != nil {
					t.Fatalf("step %d %s: %v", step, op, err)
				}
				for _, ev := range evals {
					got, err := svc.EvaluationStatusOf(ev)
					if err != nil {
						t.Fatal(err)
					}
					if want := bruteStatus(t, svc, ev); got != want {
						t.Fatalf("step %d after %s: EvaluationStatusOf(%s) = %+v, brute force %+v", step, op, ev, got, want)
					}
					jobs, err := svc.ListJobs(ev)
					if err != nil {
						t.Fatal(err)
					}
					if listed := StatusOfJobs(ev, jobs); listed != got {
						t.Fatalf("step %d after %s: StatusOfJobs = %+v, EvaluationStatusOf %+v", step, op, listed, got)
					}
				}
			}
		})
	}
}

// TestEvaluationStatusDecodesNoScheduledOrFinishedJSON: on an evaluation
// of 1,000 jobs, all scheduled or finished, every data column is replaced
// by bytes that are not JSON — and the status still counts them all,
// which it could not if it decoded one. A running job's data it does
// decode, so one unparsable running row is an error.
func TestEvaluationStatusDecodesNoScheduledOrFinishedJSON(t *testing.T) {
	svc, _ := newTestService(t)
	_, _, evID := sweepFixture(t, svc, 1000, 0)
	corrupt := func(status func(i int) JobStatus) {
		t.Helper()
		err := svc.store.db.Update(func(tx *relstore.Tx) error {
			rows, err := tx.Select(tableJobs, relstore.NewQuery().Eq("evaluationId", evID))
			for i, row := range rows {
				row["status"] = string(status(i))
				row["data"] = []byte("{not json")
				if err := tx.Put(tableJobs, row); err != nil {
					return err
				}
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	corrupt(func(i int) JobStatus {
		if i%4 == 0 {
			return StatusFinished
		}
		return StatusScheduled
	})
	st, err := svc.EvaluationStatusOf(evID)
	if err != nil {
		t.Fatalf("status over unparsable scheduled/finished rows: %v", err)
	}
	want := EvaluationStatus{EvaluationID: evID, Total: 1000, Scheduled: 750, Finished: 250, Progress: 25}
	if st != want {
		t.Fatalf("status = %+v, want %+v", st, want)
	}
	corrupt(func(i int) JobStatus {
		if i == 500 {
			return StatusRunning
		}
		return StatusScheduled
	})
	if _, err := svc.EvaluationStatusOf(evID); err == nil {
		t.Fatal("an unparsable running row went undecoded")
	}
}

// TestExportDoesNotStallCommits: an agent's CompleteJob issued while a
// 5,000-job project exports returns long before the export does. Every
// row is still read in one View — so the commits wait for that, not for
// the decoding, indenting and deflating after it — and the archive is
// still one cut: a job.json that says finished has its result.json, one
// that says running has none.
func TestExportDoesNotStallCommits(t *testing.T) {
	svc, _ := newTestService(t)
	depID, expID, _ := sweepFixture(t, svc, 5000, 0)
	var running []string
	for i := 0; i < 1500; i++ {
		j, ok, err := svc.ClaimJob(depID)
		if err != nil || !ok {
			t.Fatalf("claim: %v %v", ok, err)
		}
		if i < 1000 {
			if err := svc.CompleteJobWithLog(j.ID, []byte(`{"throughput": 1}`), nil, "done\n"); err != nil {
				t.Fatal(err)
			}
			continue
		}
		running = append(running, j.ID)
	}
	exp, err := svc.GetExperiment(expID)
	if err != nil {
		t.Fatal(err)
	}

	var (
		archive   []byte
		exportErr error
		exported  atomic.Bool
	)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		archive, exportErr = svc.ExportProject(exp.ProjectID)
		exported.Store(true)
	}()
	var slowest time.Duration
	completed := 0
	for _, id := range running {
		if exported.Load() {
			break
		}
		t0 := time.Now()
		if err := svc.CompleteJob(id, []byte(`{"throughput": 2}`), nil); err != nil {
			t.Fatal(err)
		}
		slowest = max(slowest, time.Since(t0))
		completed++
	}
	wg.Wait()
	took := time.Since(start)
	if exportErr != nil {
		t.Fatal(exportErr)
	}
	t.Logf("export %v; %d completes beside it, the slowest %v", took.Round(time.Millisecond), completed, slowest.Round(time.Microsecond))
	if slowest > took/2 {
		t.Fatalf("a complete waited %v of the export's %v: the export holds the store lock while it encodes", slowest, took)
	}

	arch, err := ReadProjectArchive(archive)
	if err != nil {
		t.Fatal(err)
	}
	var jobs, finished int
	for _, ev := range arch.Evaluations {
		for _, j := range ev.Jobs {
			jobs++
			if j.Job.Status == StatusFinished {
				finished++
			}
			if (j.Job.Status == StatusFinished) != (j.Result != nil) {
				t.Fatalf("job %s is %s with result %v: the archive is not one cut", j.Job.ID, j.Job.Status, j.Result != nil)
			}
		}
	}
	if jobs != 5000 || finished < 1000 || finished > 1000+completed {
		t.Fatalf("archive holds %d jobs, %d finished (1000 before the export, %d completed beside it)", jobs, finished, completed)
	}
}

// statusBenchFixture is a 1,000-job evaluation in mid-run: 200 finished,
// 20 running, the rest scheduled. It returns the running jobs' ids.
func statusBenchFixture(b *testing.B) (*Service, string, []string) {
	svc, err := NewService(relstore.OpenMemory(), nil)
	if err != nil {
		b.Fatal(err)
	}
	depID, _, evID := sweepFixture(b, svc, 1000, 0)
	var running []string
	for i := 0; i < 220; i++ {
		j, ok, err := svc.ClaimJob(depID)
		if err != nil || !ok {
			b.Fatalf("claim: %v %v", ok, err)
		}
		if i < 200 {
			if err := svc.CompleteJob(j.ID, []byte(`{"throughput": 1}`), nil); err != nil {
				b.Fatal(err)
			}
			continue
		}
		running = append(running, j.ID)
	}
	return svc, evID, running
}

// BenchmarkEvaluationStatus is one status read of a 1,000-job evaluation:
// a scan of scalars under the store lock, 20 running jobs decoded after it.
func BenchmarkEvaluationStatus(b *testing.B) {
	svc, evID, _ := statusBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st, err := svc.EvaluationStatusOf(evID); err != nil || st.Total != 1000 {
			b.Fatal(st, err)
		}
	}
}

// BenchmarkListJobs is one listing of a 1,000-job evaluation: the rows'
// bytes taken under the store lock, all of them decoded after it.
func BenchmarkListJobs(b *testing.B) {
	svc, evID, _ := statusBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if jobs, err := svc.ListJobs(evID); err != nil || len(jobs) != 1000 {
			b.Fatal(len(jobs), err)
		}
	}
}

// BenchmarkCommitBesideReader times agent commits (progress reports) on a
// store where one goroutine reads the same 1,000-job evaluation's status
// and job list back to back, the way a polling viewer does. A commit waits
// at most for one reader's time under the store lock, so p50_us and p99_us
// show what a status or list read holds writers back by.
func BenchmarkCommitBesideReader(b *testing.B) {
	svc, evID, running := statusBenchFixture(b)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := svc.EvaluationStatusOf(evID); err != nil {
				b.Error(err)
				return
			}
			if _, err := svc.ListJobs(evID); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := svc.Progress(running[i%len(running)], int64(i%100)); err != nil {
			b.Fatal(err)
		}
		lat[i] = time.Since(t0)
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	slices.Sort(lat)
	b.ReportMetric(float64(lat[len(lat)/2].Microseconds()), "p50_us")
	b.ReportMetric(float64(lat[(len(lat)*99)/100].Microseconds()), "p99_us")
}
