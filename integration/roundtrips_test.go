package integration

import (
	"context"
	"encoding/json"
	"fmt"
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
	"chronos/internal/relstore/repl"
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

// TestNoopJobIsOneRequestOneCommit is the count gate on what a job costs
// the control plane over real HTTP. In steady state a job that ends before
// the first reporter tick is one request and one commit: its complete, which
// the log rides and which claims the next job in the same transaction. Only
// the first job of a queue pays for a claim of its own (2 and 2), and each
// reporter tick adds one of each (progress — the log rides it). Over n jobs
// that is 2 + 1·(n−1). These counts repeat exactly, so they may gate; one
// more request or commit per job means the claim, or log output, is
// travelling by a round trip of its own again.
//
// The ends of the queue are pinned too: the complete that finds it empty
// answers a claim response without a job and the ClaimJob after it is a
// real request that commits nothing; a job claimed ahead and not wanted is
// handed back by one request and one commit, scheduled as it was.
func TestNoopJobIsOneRequestOneCommit(t *testing.T) {
	for _, tc := range []struct {
		name     string
		jobs     int
		tick     bool
		interval time.Duration
		perJob   int64 // requests, and commits, per job in steady state
		chunks   int
	}{
		{"no tick", 20, false, time.Hour, 1, 1},
		// The job ends as soon as its first tick is answered, so it has one
		// tick unless the box stalls for a whole interval just then. The
		// ticks that do happen are counted (progress requests), not assumed
		// from the timer: each is one request and one commit more.
		{"one tick", 5, true, 100 * time.Millisecond, 2, 2},
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
				requests     atomic.Int64
				ticks        atomic.Int64 // progress requests: one per reporter tick
				mu           sync.Mutex
				ticked       chan struct{} // closed when the running job's first progress is answered
				lastComplete string        // body of the newest answer to a complete
			)
			api := server.Handler()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				if strings.HasSuffix(r.URL.Path, "/complete") {
					rec := httptest.NewRecorder()
					api.ServeHTTP(rec, r)
					mu.Lock()
					lastComplete = rec.Body.String()
					mu.Unlock()
					for k, v := range rec.Header() {
						w.Header()[k] = v
					}
					w.WriteHeader(rec.Code)
					w.Write(rec.Body.Bytes())
					return
				}
				api.ServeHTTP(w, r)
				if strings.HasSuffix(r.URL.Path, "/progress") {
					ticks.Add(1)
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
			// One job more than the loop below runs: the one its last
			// complete claims ahead, for the hand-back.
			vs := make([]params.Value, tc.jobs+1)
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
			c := client.NewClient(ts.URL, client.WithVersion("v2"))
			a := &agent.Agent{
				Control:        c,
				DeploymentID:   dep.ID,
				Factory:        func() agent.Runner { return lineRunner{tick: tick} },
				ReportInterval: tc.interval,
			}
			// cost runs do and returns the requests and commits it made.
			cost := func(do func()) (int64, int64) {
				reqs, coms := requests.Load(), commits.Value()
				do()
				return requests.Load() - reqs, commits.Value() - coms
			}
			runOne := func(what string, wantWorked bool, want, wantCommits int64) {
				t.Helper()
				wantTicks := int64(0)
				if tc.tick && wantWorked {
					wantTicks = 1
					tick = make(chan struct{})
					mu.Lock()
					ticked = tick
					mu.Unlock()
				}
				before := ticks.Load()
				r, c := cost(func() {
					if worked, err := a.RunOnce(context.Background()); err != nil || worked != wantWorked {
						t.Fatalf("%s: RunOnce = %v, %v", what, worked, err)
					}
				})
				extra := ticks.Load() - before - wantTicks // ticks a loaded box squeezed in
				if extra < 0 || r != want+extra || c != wantCommits+extra {
					t.Fatalf("%s cost %d request(s) and %d commit(s) over %d tick(s), want %d and %d over %d",
						what, r, c, wantTicks+extra, want, wantCommits, wantTicks)
				}
			}
			// 2 + 1·(n−1): only the first job pays for its claim.
			runOne("job 0", true, tc.perJob+1, tc.perJob+1)
			for i := 1; i < tc.jobs; i++ {
				runOne(fmt.Sprintf("job %d", i), true, tc.perJob, tc.perJob)
			}

			// The last complete claimed the extra job ahead. Handing it back
			// is one request and one commit and leaves it as it was.
			jobs, _ := svc.ListJobs(ev.ID)
			extra := jobs[tc.jobs]
			if extra.Status != core.StatusRunning || extra.Attempts != 1 {
				t.Fatalf("job claimed ahead = %+v", extra)
			}
			if r, c := cost(func() {
				if err := a.Control.HandBack(dep.ID); err != nil {
					t.Fatal(err)
				}
			}); r != 1 || c != 1 {
				t.Fatalf("HandBack cost %d request(s) and %d commit(s), want 1 and 1", r, c)
			}
			if r, c := cost(func() { a.Control.HandBack(dep.ID) }); r != 0 || c != 0 {
				t.Fatalf("HandBack with nothing held cost %d request(s) and %d commit(s)", r, c)
			}
			extra, _ = svc.GetJob(extra.ID)
			if extra.Status != core.StatusScheduled || extra.Attempts != 0 || extra.DeploymentID != "" {
				t.Fatalf("handed-back job = %+v", extra)
			}
			tl, _ := svc.JobTimeline(extra.ID)
			if len(tl) != 3 || tl[1].Kind != core.EventClaimed || tl[2].Kind != core.EventReleased {
				t.Fatalf("handed-back job's timeline = %+v, want created, claimed, released", tl)
			}

			// It is the queue's only job now: claimed by a request again, and
			// its complete finds the queue empty — a claim response with no
			// job in it — so the next ClaimJob is a real request, which
			// commits nothing.
			runOne("the handed-back job", true, tc.perJob+1, tc.perJob+1)
			mu.Lock()
			answer := lastComplete
			mu.Unlock()
			if strings.Contains(answer, `"job"`) || strings.Contains(answer, "completed") || !strings.Contains(answer, `"data":{}`) {
				t.Fatalf("complete on an empty queue answered %s, want an empty claim response", answer)
			}
			runOne("the empty queue", false, 1, 0)

			jobs, err = svc.ListJobs(ev.ID)
			if err != nil || len(jobs) != tc.jobs+1 {
				t.Fatalf("jobs: %d %v", len(jobs), err)
			}
			for _, j := range jobs {
				if j.Status != core.StatusFinished || j.Attempts != 1 {
					t.Fatalf("job %s is %s after %d attempt(s) (%s)", j.ID, j.Status, j.Attempts, j.Error)
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

// TestFleetClaimsAtTheLeaderOnly is the traffic probe for the one door
// claims go through: a fleet whose clients read from a follower and write
// to the leader (WithLeader) works a queue off, and every hand-out is the
// leader's — a claim request for each agent's first job, then the
// completes that claim the next — while the follower is never sent a
// write. An empty poll claims nothing, so the two counters add up to the
// queue exactly.
func TestFleetClaimsAtTheLeaderOnly(t *testing.T) {
	const agents, jobs = 4, 200
	quiet := log.New(io.Discard, "", 0)
	reg := metrics.NewRegistry()
	db, err := relstore.Open(t.TempDir(), &relstore.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	svc, err := core.NewService(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetMetrics(reg)
	server := rest.NewServer(svc)
	server.Logger = quiet
	leaderTS := httptest.NewServer(server.Handler())
	defer leaderTS.Close()

	f, err := repl.Start(repl.Config{
		Dir:        t.TempDir(),
		Leader:     leaderTS.URL,
		PollWait:   250 * time.Millisecond,
		RetryEvery: 20 * time.Millisecond,
		Logger:     quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fsvc, err := core.NewService(f.DB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fserver := rest.NewServer(fsvc)
	fserver.Repl = f
	fserver.Logger = quiet
	fapi := fserver.Handler()
	var followerWrites atomic.Int64
	followerTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			followerWrites.Add(1)
		}
		fapi.ServeHTTP(w, r)
	}))
	defer followerTS.Close()

	u, _ := svc.CreateUser("op", core.RoleAdmin)
	p, _ := svc.CreateProject("noop", "", u.ID, nil)
	sys, _ := svc.RegisterSystem("noop", "", []params.Definition{
		{Name: "v", Type: params.TypeInterval, Min: 1, Max: 1000, Default: params.Int(1)},
	}, nil)
	dep, _ := svc.CreateDeployment(sys.ID, "d", "", "")
	vs := make([]params.Value, jobs)
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

	var wg sync.WaitGroup
	var ran atomic.Int64
	for i := 0; i < agents; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := &agent.Agent{
				Control:        client.NewClient(followerTS.URL, client.WithVersion("v2"), client.WithLeader(leaderTS.URL)),
				DeploymentID:   dep.ID,
				Factory:        func() agent.Runner { return lineRunner{} },
				ReportInterval: time.Hour,
			}
			n, err := a.Drain(context.Background())
			if err != nil {
				t.Errorf("drain: %v", err)
			}
			ran.Add(int64(n))
		}()
	}
	wg.Wait()

	st, err := svc.EvaluationStatusOf(ev.ID)
	if err != nil || st.Finished != jobs || ran.Load() != jobs {
		t.Fatalf("fleet ran %d job(s), evaluation status %+v, %v; want all %d finished", ran.Load(), st, err, jobs)
	}
	claimed := reg.CounterVec("chronos_jobs_claimed_total", "", "via")
	byClaim, byComplete := claimed.With("claim").Value(), claimed.With("complete").Value()
	if byClaim+byComplete != jobs || byClaim > agents {
		t.Fatalf("leader handed out %d job(s) by claim and %d by complete, want %d in all and at most %d by claim (each agent's first)",
			byClaim, byComplete, jobs, agents)
	}
	if n := followerWrites.Load(); n != 0 {
		t.Fatalf("the follower was sent %d write(s)", n)
	}
}
