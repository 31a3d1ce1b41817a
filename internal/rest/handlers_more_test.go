package rest

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"chronos/internal/api"
	"chronos/internal/core"
	"chronos/internal/params"
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
