package integration

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/internal/rest"
	"chronos/pkg/client"
)

// lineRunner is the benchmark's no-op evaluation client: one log line and
// a one-key result, no work. With tick set, Execute also waits until a
// reporter tick has been answered and logs a second line.
type lineRunner struct{ tick <-chan struct{} }

func (lineRunner) Prepare(*agent.RunContext) error { return nil }
func (lineRunner) WarmUp(*agent.RunContext) error  { return nil }
func (r lineRunner) Execute(rc *agent.RunContext) error {
	rc.Logf("noop job %s", rc.Job.ID)
	if r.tick != nil {
		<-r.tick
		rc.Logf("after the tick %s", rc.Job.ID)
	}
	return nil
}
func (lineRunner) Analyze(rc *agent.RunContext) (map[string]any, error) {
	return map[string]any{"v": rc.Params().Int("v", 0)}, nil
}
func (lineRunner) Clean(*agent.RunContext) error { return nil }

// TestNoopJobIsTwoRequestsTwoCommits is the count gate on what a job costs
// the control plane over real HTTP: a job that ends before the first
// reporter tick is two requests and two commits (claim, complete — the log
// rides the complete), and each reporter tick adds one of each (progress —
// the log rides it). These counts repeat exactly, so they may gate; a
// third request or commit per job means log output is travelling by a
// round trip of its own again.
func TestNoopJobIsTwoRequestsTwoCommits(t *testing.T) {
	for _, tc := range []struct {
		name     string
		jobs     int
		tick     bool
		interval time.Duration
		perJob   int64 // requests, and commits, per job
		chunks   int
	}{
		{"no tick", 20, false, time.Hour, 2, 1},
		// Long enough that a second tick cannot fall inside the job, which
		// ends as soon as the first one is answered.
		{"one tick", 5, true, 100 * time.Millisecond, 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			db, err := relstore.Open(t.TempDir(), &relstore.Options{Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			commits := reg.Counter("chronos_store_commits_total", "")
			svc, err := core.NewService(db, nil)
			if err != nil {
				t.Fatal(err)
			}
			server := rest.NewServer(svc)
			server.Logger = log.New(io.Discard, "", 0)
			var (
				requests atomic.Int64
				mu       sync.Mutex
				ticked   chan struct{} // closed when the running job's first progress is answered
			)
			api := server.Handler()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				api.ServeHTTP(w, r)
				if strings.HasSuffix(r.URL.Path, "/progress") {
					mu.Lock()
					if ticked != nil {
						close(ticked)
						ticked = nil
					}
					mu.Unlock()
				}
			}))
			defer ts.Close()

			u, _ := svc.CreateUser("op", core.RoleAdmin)
			p, _ := svc.CreateProject("noop", "", u.ID, nil)
			sys, _ := svc.RegisterSystem("noop", "", []params.Definition{
				{Name: "v", Type: params.TypeInterval, Min: 1, Max: 1000, Default: params.Int(1)},
			}, nil)
			dep, _ := svc.CreateDeployment(sys.ID, "d", "", "")
			vs := make([]params.Value, tc.jobs)
			for i := range vs {
				vs[i] = params.Int(int64(i + 1))
			}
			exp, err := svc.CreateExperiment(p.ID, sys.ID, "sweep", "", map[string][]params.Value{"v": vs}, 1)
			if err != nil {
				t.Fatal(err)
			}
			ev, _, err := svc.CreateEvaluation(exp.ID)
			if err != nil {
				t.Fatal(err)
			}

			var tick chan struct{}
			a := &agent.Agent{
				Control:        client.NewClient(ts.URL, client.WithVersion("v2")),
				DeploymentID:   dep.ID,
				Factory:        func() agent.Runner { return lineRunner{tick: tick} },
				ReportInterval: tc.interval,
			}
			for i := 0; i < tc.jobs; i++ {
				if tc.tick {
					tick = make(chan struct{})
					mu.Lock()
					ticked = tick
					mu.Unlock()
				}
				reqs, coms := requests.Load(), commits.Value()
				if worked, err := a.RunOnce(context.Background()); err != nil || !worked {
					t.Fatalf("job %d: RunOnce = %v, %v", i, worked, err)
				}
				if r, c := requests.Load()-reqs, commits.Value()-coms; r != tc.perJob || c != tc.perJob {
					t.Fatalf("job %d cost %d request(s) and %d commit(s), want %d and %d", i, r, c, tc.perJob, tc.perJob)
				}
			}

			jobs, err := svc.ListJobs(ev.ID)
			if err != nil || len(jobs) != tc.jobs {
				t.Fatalf("jobs: %d %v", len(jobs), err)
			}
			for _, j := range jobs {
				if j.Status != core.StatusFinished {
					t.Fatalf("job %s is %s (%s)", j.ID, j.Status, j.Error)
				}
				res, err := svc.GetJobResult(j.ID)
				if err != nil {
					t.Fatal(err)
				}
				var doc map[string]any
				if err := json.Unmarshal(res.JSON, &doc); err != nil || doc["v"] != float64(j.Params.Int("v", 0)) {
					t.Fatalf("job %s result = %s (%v)", j.ID, res.JSON, err)
				}
				logs, _ := svc.JobLogs(j.ID)
				if len(logs) != tc.chunks || !strings.Contains(logs[0].Text, "noop job "+j.ID) {
					t.Fatalf("job %s has chunks %+v, want %d starting with its line", j.ID, logs, tc.chunks)
				}
				if tc.tick && (!strings.Contains(logs[1].Text, "after the tick "+j.ID) || logs[1].Seq <= logs[0].Seq) {
					t.Fatalf("job %s: trailing chunk not after the tick's: %+v", j.ID, logs)
				}
			}
		})
	}
}
