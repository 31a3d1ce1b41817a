package rest

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"chronos/internal/api"
	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/pkg/client"
)

// raw issues a request directly against the test server, returning the
// status code and body; used for endpoints the Go client does not wrap.
func (f *fixture) raw(t *testing.T, method, path, body string) (int, string) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, f.ts.URL+path, rdr)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := f.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

func TestUserEndpoints(t *testing.T) {
	f := newFixture(t, false, "")
	c := client.NewClient(f.ts.URL)
	u, err := c.CreateUser("marco", core.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	// GET one user.
	code, body := f.raw(t, "GET", "/api/v1/users/"+u.ID, "")
	if code != 200 || !strings.Contains(body, "marco") {
		t.Fatalf("get user: %d %s", code, body)
	}
	code, _ = f.raw(t, "GET", "/api/v1/users/user-000000404", "")
	if code != 404 {
		t.Fatalf("missing user: %d", code)
	}
	// List.
	us, err := c.ListUsers()
	if err != nil || len(us) != 1 {
		t.Fatalf("list users: %v %v", us, err)
	}
	// Invalid role rejected.
	code, _ = f.raw(t, "POST", "/api/v1/users", `{"name": "x", "role": "emperor"}`)
	if code != 400 {
		t.Fatalf("bad role: %d", code)
	}
}

func TestProjectEndpoints(t *testing.T) {
	f := newFixture(t, false, "")
	c := client.NewClient(f.ts.URL)
	u, _ := c.CreateUser("owner", core.RoleAdmin)
	member, _ := c.CreateUser("member", core.RoleMember)
	p, _ := c.CreateProject("proj", "d", u.ID, nil)

	// GET one project.
	code, body := f.raw(t, "GET", "/api/v1/projects/"+p.ID, "")
	if code != 200 || !strings.Contains(body, "proj") {
		t.Fatalf("get project: %d %s", code, body)
	}
	// Add member.
	code, _ = f.raw(t, "POST", "/api/v1/projects/"+p.ID+"/members",
		fmt.Sprintf(`{"userId": %q}`, member.ID))
	if code != 200 {
		t.Fatalf("add member: %d", code)
	}
	// Archive; then adding members conflicts.
	if err := c.ArchiveProject(p.ID); err != nil {
		t.Fatal(err)
	}
	third, _ := c.CreateUser("third", core.RoleMember)
	code, _ = f.raw(t, "POST", "/api/v1/projects/"+p.ID+"/members",
		fmt.Sprintf(`{"userId": %q}`, third.ID))
	if code != 409 {
		t.Fatalf("archived member add: %d", code)
	}
}

func TestSystemAndDeploymentEndpoints(t *testing.T) {
	f := newFixture(t, false, "")
	c := client.NewClient(f.ts.URL)
	sys, err := c.RegisterSystem("sue", "desc", mongoDefs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.GetSystem(sys.ID)
	if err != nil || got.Name != "sue" || len(got.Parameters) != 2 {
		t.Fatalf("get system: %+v %v", got, err)
	}
	// Deployment lifecycle over REST.
	d, _ := c.CreateDeployment(sys.ID, "node", "env", "v1")
	if err := c.SetDeploymentActive(d.ID, false); err != nil {
		t.Fatal(err)
	}
	deps, _ := c.ListDeployments(sys.ID)
	if len(deps) != 1 || deps[0].Active {
		t.Fatalf("deployments: %+v", deps)
	}
	// Invalid system registration propagates a 400.
	code, _ := f.raw(t, "POST", "/api/v1/systems",
		`{"name": "bad", "parameters": [{"name": "x", "type": "value"}]}`)
	if code != 400 {
		t.Fatalf("bad system: %d", code)
	}
}

func TestExperimentAndEvaluationEndpoints(t *testing.T) {
	f := newFixture(t, false, "")
	c := client.NewClient(f.ts.URL)
	u, _ := c.CreateUser("u", core.RoleAdmin)
	p, _ := c.CreateProject("p", "", u.ID, nil)
	sys, _ := c.RegisterSystem("s", "", mongoDefs(), nil)
	exp, err := c.CreateExperiment(p.ID, sys.ID, "e", "d", map[string][]params.Value{
		"threads": {params.Int(1), params.Int(2)},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// GET experiment.
	code, body := f.raw(t, "GET", "/api/v1/experiments/"+exp.ID, "")
	if code != 200 || !strings.Contains(body, `"maxAttempts":2`) {
		t.Fatalf("get experiment: %d %s", code, body)
	}
	// List by project.
	exps, err := c.ListExperiments(p.ID)
	if err != nil || len(exps) != 1 {
		t.Fatalf("list experiments: %v %v", exps, err)
	}
	ev, jobs, err := c.CreateEvaluation(exp.ID)
	if err != nil || len(jobs) != 2 {
		t.Fatalf("create evaluation: %v %v", err, jobs)
	}
	// GET evaluation + list.
	code, _ = f.raw(t, "GET", "/api/v1/evaluations/"+ev.ID, "")
	if code != 200 {
		t.Fatalf("get evaluation: %d", code)
	}
	code, body = f.raw(t, "GET", "/api/v1/evaluations?experiment="+exp.ID, "")
	if code != 200 || !strings.Contains(body, ev.ID) {
		t.Fatalf("list evaluations: %d %s", code, body)
	}
	// Archive experiment -> new evaluations conflict.
	code, _ = f.raw(t, "POST", "/api/v1/experiments/"+exp.ID+"/archive", "{}")
	if code != 200 {
		t.Fatalf("archive experiment: %d", code)
	}
	code, _ = f.raw(t, "POST", "/api/v1/evaluations",
		fmt.Sprintf(`{"experimentId": %q}`, exp.ID))
	if code != 409 {
		t.Fatalf("evaluation of archived experiment: %d", code)
	}
}

func TestJobManagementEndpoints(t *testing.T) {
	f := newFixture(t, false, "")
	c := client.NewClient(f.ts.URL)
	u, _ := c.CreateUser("u", core.RoleAdmin)
	p, _ := c.CreateProject("p", "", u.ID, nil)
	sys, _ := c.RegisterSystem("s", "", nil, nil)
	dep, _ := c.CreateDeployment(sys.ID, "d", "", "")
	exp, _ := c.CreateExperiment(p.ID, sys.ID, "e", "", nil, 0)
	_, jobs, _ := c.CreateEvaluation(exp.ID)

	// Claim, fail over REST, then reschedule via client.
	j, _, err := c.ClaimJob(dep.ID)
	if err != nil || j == nil {
		t.Fatal(err)
	}
	if err := c.Fail(j.ID, "remote failure"); err != nil {
		t.Fatal(err)
	}
	// Attempt budget (default 3) leaves it scheduled after auto-reschedule;
	// exhaust it.
	for i := 0; i < 2; i++ {
		j2, _, err := c.ClaimJob(dep.ID)
		if err != nil || j2 == nil {
			t.Fatal(err)
		}
		if err := c.Fail(j2.ID, "remote failure"); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := c.GetJob(jobs[0].ID)
	if got.Status != core.StatusFailed {
		t.Fatalf("status = %s", got.Status)
	}
	// A job that never finished has no result -> 404.
	code, _ := f.raw(t, "GET", "/api/v1/jobs/"+jobs[0].ID+"/result", "")
	if code != 404 {
		t.Fatalf("missing result: %d", code)
	}
	if err := c.RescheduleJob(jobs[0].ID); err != nil {
		t.Fatal(err)
	}
	got, _ = c.GetJob(jobs[0].ID)
	if got.Status != core.StatusScheduled {
		t.Fatalf("after reschedule: %s", got.Status)
	}
	// Logs + timeline + result endpoints on a finished job.
	j3, _, _ := c.ClaimJob(dep.ID)
	c.AppendLog(j3.ID, "hello\n")
	c.Complete(j3.ID, []byte(`{"throughput": 5}`), []byte("zzz"))
	logs, err := c.JobLogs(j3.ID)
	if err != nil || len(logs) != 1 {
		t.Fatalf("logs: %v %v", logs, err)
	}
	tl, err := c.JobTimeline(j3.ID)
	if err != nil || len(tl) < 3 {
		t.Fatalf("timeline: %v %v", tl, err)
	}
	res, err := c.JobResult(j3.ID)
	if err != nil || string(res.Archive) != "zzz" {
		t.Fatalf("result: %+v %v", res, err)
	}
}

func TestPingAndLogoutWithoutAuth(t *testing.T) {
	f := newFixture(t, false, "")
	// Logout without auth configured is a no-op 200.
	code, _ := f.raw(t, "POST", "/api/v1/logout", "{}")
	if code != 200 {
		t.Fatalf("logout: %d", code)
	}
	// Login without auth configured -> 501.
	code, _ = f.raw(t, "POST", "/api/v1/login", `{"user": "x", "password": "y"}`)
	if code != http.StatusNotImplemented {
		t.Fatalf("login: %d", code)
	}
}

func TestExportEndpointErrors(t *testing.T) {
	f := newFixture(t, false, "")
	c := client.NewClient(f.ts.URL)
	if _, err := c.ExportProject("project-000000404"); err == nil {
		t.Fatal("ghost export succeeded")
	}
}

func TestStatusResponseJSONShape(t *testing.T) {
	// The agent-visible status payload keeps its wire shape.
	data, err := json.Marshal(api.StatusResponse{Status: core.StatusRunning})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"status":"running"}` {
		t.Fatalf("wire shape = %s", data)
	}
}

func TestJobPhasesEndpoint(t *testing.T) {
	f := newFixture(t, false, "")
	c := client.NewClient(f.ts.URL)
	u, _ := c.CreateUser("u", core.RoleAdmin)
	p, _ := c.CreateProject("p", "", u.ID, nil)
	sys, _ := c.RegisterSystem("s", "", nil, nil)
	dep, _ := c.CreateDeployment(sys.ID, "d", "", "")
	exp, _ := c.CreateExperiment(p.ID, sys.ID, "e", "", nil, 0)
	_, jobs, _ := c.CreateEvaluation(exp.ID)

	// Unfinished job has no result -> 404.
	code, _ := f.raw(t, "GET", "/api/v1/jobs/"+jobs[0].ID+"/phases", "")
	if code != 404 {
		t.Fatalf("phases of unfinished job: %d", code)
	}

	j, _, err := c.ClaimJob(dep.ID)
	if err != nil || j == nil {
		t.Fatal(err)
	}
	result := `{"throughput": 9, "phaseResults": [` +
		`{"index":0,"phase":"steady","operations":900,"throughput":4500,"durationMs":200},` +
		`{"index":1,"phase":"surge","operations":500,"throughput":9000,"durationMs":55.5}]}`
	if err := c.Complete(j.ID, []byte(result), nil); err != nil {
		t.Fatal(err)
	}
	phases, err := c.JobPhases(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 || phases[0].Phase != "steady" || phases[1].Operations != 500 {
		t.Fatalf("phases = %+v", phases)
	}
	if phases[1].DurationMs != 55.5 {
		t.Fatalf("durationMs = %v", phases[1].DurationMs)
	}
}

func TestJobPhasesEmptyForStaticResult(t *testing.T) {
	f := newFixture(t, false, "")
	c := client.NewClient(f.ts.URL)
	u, _ := c.CreateUser("u", core.RoleAdmin)
	p, _ := c.CreateProject("p", "", u.ID, nil)
	sys, _ := c.RegisterSystem("s", "", nil, nil)
	dep, _ := c.CreateDeployment(sys.ID, "d", "", "")
	exp, _ := c.CreateExperiment(p.ID, sys.ID, "e", "", nil, 0)
	_, _, _ = c.CreateEvaluation(exp.ID)
	j, _, _ := c.ClaimJob(dep.ID)
	if err := c.Complete(j.ID, []byte(`{"throughput": 5}`), nil); err != nil {
		t.Fatal(err)
	}
	phases, err := c.JobPhases(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 0 {
		t.Fatalf("static job has phases: %+v", phases)
	}
}

// countedFixture is a control server over a disk-backed store whose commits
// are counted (and whose registry is served at /metrics), with one
// evaluation of four jobs scheduled.
func countedFixture(t *testing.T) (f *fixture, commits *metrics.Counter, depID string) {
	t.Helper()
	reg := metrics.NewRegistry()
	db, err := relstore.Open(t.TempDir(), &relstore.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	svc, err := core.NewService(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetMetrics(reg)
	f = &fixture{svc: svc, server: NewServer(svc)}
	f.server.Logger = log.New(io.Discard, "", 0)
	f.server.Registry = reg
	f.ts = httptest.NewServer(f.server.Handler())
	t.Cleanup(f.ts.Close)
	u, _ := svc.CreateUser("u", core.RoleAdmin)
	p, _ := svc.CreateProject("p", "", u.ID, nil)
	sys, _ := svc.RegisterSystem("mongodb", "", mongoDefs(), nil)
	dep, _ := svc.CreateDeployment(sys.ID, "d", "", "")
	exp, err := svc.CreateExperiment(p.ID, sys.ID, "e", "", map[string][]params.Value{
		"threads": {params.Int(1), params.Int(2), params.Int(3), params.Int(4)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.CreateEvaluation(exp.ID); err != nil {
		t.Fatal(err)
	}
	return f, reg.Counter("chronos_store_commits_total", ""), dep.ID
}

// TestBatchUpdateIsOneTransaction: v2's combined call stores its log chunk
// and its progress in one commit (it was AppendJobLog and then Progress —
// two commits, two fsyncs, and a store error between them left the log
// without the heartbeat).
func TestBatchUpdateIsOneTransaction(t *testing.T) {
	f, commits, depID := countedFixture(t)
	j, _, err := f.svc.ClaimJob(depID)
	if err != nil {
		t.Fatal(err)
	}
	before := commits.Value()
	code, body := f.raw(t, http.MethodPost, "/api/v2/jobs/"+j.ID+"/update", `{"percent":30,"log":"batched\n"}`)
	if code != http.StatusOK || !strings.Contains(body, `"running"`) {
		t.Fatalf("update: %d %s", code, body)
	}
	if got := commits.Value() - before; got != 1 {
		t.Fatalf("batch with log and percent made %d commits, want 1", got)
	}
	got, _ := f.svc.GetJob(j.ID)
	logs, _ := f.svc.JobLogs(j.ID)
	if got.Progress != 30 || len(logs) != 1 || logs[0].Text != "batched\n" {
		t.Fatalf("progress = %d, chunks = %+v", got.Progress, logs)
	}

	// A batch aimed at a missing job stores nothing.
	before = commits.Value()
	if code, body := f.raw(t, http.MethodPost, "/api/v2/jobs/job-999999999/update", `{"percent":30,"log":"lost\n"}`); code != http.StatusNotFound {
		t.Fatalf("update on a missing job: %d %s", code, body)
	}
	if got := commits.Value() - before; got != 0 {
		t.Fatalf("batch on a missing job made %d commit(s)", got)
	}

	// The heartbeat-only form: no percent, no log, progress untouched.
	hb := got.Heartbeat
	time.Sleep(2 * time.Millisecond) // the store keeps milliseconds
	if code, body := f.raw(t, http.MethodPost, "/api/v2/jobs/"+j.ID+"/update", `{}`); code != http.StatusOK {
		t.Fatalf("heartbeat-only update: %d %s", code, body)
	}
	got, _ = f.svc.GetJob(j.ID)
	if !got.Heartbeat.After(hb) || got.Progress != 30 {
		t.Fatalf("heartbeat-only update: heartbeat %v -> %v, progress %d", hb, got.Heartbeat, got.Progress)
	}
	if logs, _ := f.svc.JobLogs(j.ID); len(logs) != 1 {
		t.Fatalf("heartbeat-only update stored a chunk: %d", len(logs))
	}
}

// TestLogFieldOnAgentCalls pins the optional log field of progress,
// complete and fail on both API versions: stored in the call's own commit,
// and kept by a call the state machine refuses.
func TestLogFieldOnAgentCalls(t *testing.T) {
	for _, v := range APIVersions {
		t.Run(v, func(t *testing.T) {
			f, commits, depID := countedFixture(t)
			post := func(id, call, body string, want int) {
				t.Helper()
				before := commits.Value()
				if code, resp := f.raw(t, http.MethodPost, "/api/"+v+"/jobs/"+id+"/"+call, body); code != want {
					t.Fatalf("%s: %d %s, want %d", call, code, resp, want)
				}
				if got := commits.Value() - before; got != 1 {
					t.Fatalf("%s made %d commits, want 1", call, got)
				}
			}
			texts := func(id string) (out []string) {
				logs, _ := f.svc.JobLogs(id)
				for _, c := range logs {
					out = append(out, c.Text)
				}
				return out
			}
			// All three claimed up front: a failed job is re-scheduled and
			// would be handed out again.
			done, _, _ := f.svc.ClaimJob(depID)
			failed, _, _ := f.svc.ClaimJob(depID)
			aborted, _, _ := f.svc.ClaimJob(depID)
			post(done.ID, "progress", `{"percent":50,"log":"tick\n"}`, http.StatusOK)
			post(done.ID, "complete", `{"resultJson":"eyJ2IjoxfQ==","log":"tail\n"}`, http.StatusOK)
			if got := texts(done.ID); !reflect.DeepEqual(got, []string{"tick\n", "tail\n"}) {
				t.Fatalf("finished job's chunks = %q", got)
			}
			if j, _ := f.svc.GetJob(done.ID); j.Status != core.StatusFinished {
				t.Fatalf("job is %s", j.Status)
			}

			post(failed.ID, "fail", `{"reason":"boom","log":"why\n"}`, http.StatusOK)
			if got := texts(failed.ID); !reflect.DeepEqual(got, []string{"why\n"}) {
				t.Fatalf("failed job's chunks = %q", got)
			}

			if err := f.svc.AbortJob(aborted.ID); err != nil {
				t.Fatal(err)
			}
			post(aborted.ID, "complete", `{"resultJson":"eyJ2IjoxfQ==","log":"last words\n"}`, http.StatusConflict)
			if got := texts(aborted.ID); !reflect.DeepEqual(got, []string{"last words\n"}) {
				t.Fatalf("refused complete's chunks = %q", got)
			}
		})
	}
}
