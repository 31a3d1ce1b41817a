package rest

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chronos/internal/auth"
	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/pkg/client"
)

// fixture spins up a full control server over httptest.
type fixture struct {
	svc    *core.Service
	auth   *auth.Authenticator
	server *Server
	ts     *httptest.Server
	clock  *metrics.ManualClock
}

func newFixture(t *testing.T, withAuth bool, agentToken string) *fixture {
	t.Helper()
	clock := metrics.NewManualClock(time.Date(2020, 3, 30, 9, 0, 0, 0, time.UTC))
	db := relstore.OpenMemory()
	svc, err := core.NewService(db, clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{svc: svc, clock: clock}
	f.server = NewServer(svc)
	f.server.AgentToken = agentToken
	if withAuth {
		f.auth = f.server.Auth()
	}
	f.ts = httptest.NewServer(f.server.Handler())
	t.Cleanup(f.ts.Close)
	return f
}

func mongoDefs() []params.Definition {
	return []params.Definition{
		{Name: "engine", Type: params.TypeValue, ValueKind: params.KindString,
			Options: []string{"wiredtiger", "mmapv1"}, Default: params.String_("wiredtiger")},
		{Name: "threads", Type: params.TypeInterval, Min: 1, Max: 64, Default: params.Int(1)},
	}
}

func TestPingBothVersions(t *testing.T) {
	f := newFixture(t, false, "")
	for _, v := range APIVersions {
		c := client.NewClient(f.ts.URL, client.WithVersion(v))
		pong, err := c.Ping()
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if pong.Version != v || pong.Service != "chronos-control" {
			t.Fatalf("%s: pong = %+v", v, pong)
		}
		if len(pong.Versions) != 2 {
			t.Fatalf("versions = %v", pong.Versions)
		}
	}
}

func TestFullWorkflowOverREST(t *testing.T) {
	f := newFixture(t, false, "")
	c := client.NewClient(f.ts.URL)

	u, err := c.CreateUser("marco", core.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.CreateProject("mongo-eval", "demo", u.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := c.RegisterSystem("mongodb", "document store", mongoDefs(), []core.DiagramSpec{
		{Type: "line", Title: "Throughput", Metric: "throughput", XParam: "threads", SeriesParam: "engine"},
	})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := c.CreateDeployment(sys.ID, "sim-1", "local", "4.0")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := c.CreateExperiment(p.ID, sys.ID, "sweep", "", map[string][]params.Value{
		"engine":  {params.String_("wiredtiger"), params.String_("mmapv1")},
		"threads": {params.Int(1), params.Int(4)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev, jobs, err := c.CreateEvaluation(exp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("jobs = %d", len(jobs))
	}

	// Agent executes every job over the wire.
	for range jobs {
		j, _, err := c.ClaimJob(dep.ID)
		if err != nil {
			t.Fatal(err)
		}
		if j == nil {
			t.Fatal("expected work")
		}
		if st, err := c.Progress(j.ID, 50); err != nil || st != core.StatusRunning {
			t.Fatalf("progress: %v %v", st, err)
		}
		if err := c.AppendLog(j.ID, "bench running\n"); err != nil {
			t.Fatal(err)
		}
		if err := c.Complete(j.ID, []byte(`{"throughput": 99.5}`), []byte("raw")); err != nil {
			t.Fatal(err)
		}
	}
	// Queue drained.
	if j, _, err := c.ClaimJob(dep.ID); err != nil || j != nil {
		t.Fatalf("drained claim = %v, %v", j, err)
	}
	st, err := c.EvaluationStatus(ev.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done() || st.Finished != 4 {
		t.Fatalf("status = %+v", st)
	}
	// Results, logs, timeline retrievable.
	res, err := c.JobResult(jobs[0].ID)
	if err != nil || !strings.Contains(string(res.JSON), "throughput") {
		t.Fatalf("result = %+v, %v", res, err)
	}
	logs, err := c.JobLogs(jobs[0].ID)
	if err != nil || len(logs) != 1 {
		t.Fatalf("logs = %v, %v", logs, err)
	}
	tl, err := c.JobTimeline(jobs[0].ID)
	if err != nil || len(tl) < 3 {
		t.Fatalf("timeline = %v, %v", tl, err)
	}
	// Export round-trips.
	zipData, err := c.ExportProject(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := core.ReadProjectArchive(zipData)
	if err != nil {
		t.Fatal(err)
	}
	if len(arch.Evaluations) != 1 || len(arch.Evaluations[0].Jobs) != 4 {
		t.Fatalf("archive = %+v", arch)
	}
}

func TestV2ClaimIncludesParameters(t *testing.T) {
	f := newFixture(t, false, "")
	c1 := client.NewClient(f.ts.URL) // v1
	c2 := client.NewClient(f.ts.URL, client.WithVersion("v2"))

	u, _ := c1.CreateUser("u", core.RoleAdmin)
	p, _ := c1.CreateProject("p", "", u.ID, nil)
	sys, _ := c1.RegisterSystem("mongodb", "", mongoDefs(), nil)
	dep, _ := c1.CreateDeployment(sys.ID, "d", "", "")
	exp, _ := c1.CreateExperiment(p.ID, sys.ID, "e", "", nil, 0)
	c1.CreateEvaluation(exp.ID)
	c1.CreateEvaluation(exp.ID)

	// v1 claim: no parameter definitions (backwards compatible).
	j1, defs1, err := c1.ClaimJob(dep.ID)
	if err != nil || j1 == nil {
		t.Fatalf("v1 claim: %v", err)
	}
	if len(defs1) != 0 {
		t.Fatalf("v1 claim leaked parameters: %v", defs1)
	}
	// v2 claim: definitions inline.
	j2, defs2, err := c2.ClaimJob(dep.ID)
	if err != nil || j2 == nil {
		t.Fatalf("v2 claim: %v", err)
	}
	if len(defs2) != len(mongoDefs()) {
		t.Fatalf("v2 parameters = %v", defs2)
	}
	// v2 batch update works; v1 client refuses locally.
	pct := int64(30)
	if st, err := c2.BatchUpdate(j2.ID, &pct, "log line\n"); err != nil || st != core.StatusRunning {
		t.Fatalf("batch update: %v %v", st, err)
	}
	if _, err := c1.BatchUpdate(j1.ID, &pct, "x"); err == nil {
		t.Fatal("v1 BatchUpdate should refuse")
	}
	logs, _ := c1.JobLogs(j2.ID)
	if len(logs) != 1 || logs[0].Text != "log line\n" {
		t.Fatalf("batched log missing: %v", logs)
	}
}

func TestAgentTokenEnforced(t *testing.T) {
	f := newFixture(t, false, "secret-token")
	// Management endpoints stay open (no auth configured).
	c := client.NewClient(f.ts.URL)
	u, err := c.CreateUser("u", core.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := c.CreateProject("p", "", u.ID, nil)
	sys, _ := c.RegisterSystem("s", "", nil, nil)
	dep, _ := c.CreateDeployment(sys.ID, "d", "", "")
	exp, _ := c.CreateExperiment(p.ID, sys.ID, "e", "", nil, 0)
	c.CreateEvaluation(exp.ID)

	// Claim without token fails.
	if _, _, err := c.ClaimJob(dep.ID); err == nil || !strings.Contains(err.Error(), "agent token") {
		t.Fatalf("tokenless claim: %v", err)
	}
	// With the token it succeeds.
	ca := client.NewClient(f.ts.URL, client.WithAgentToken("secret-token"))
	if j, _, err := ca.ClaimJob(dep.ID); err != nil || j == nil {
		t.Fatalf("tokened claim: %v %v", j, err)
	}
}

func TestSessionAuthOverREST(t *testing.T) {
	f := newFixture(t, true, "")
	// Bootstrap an admin directly on the service (first-user problem).
	admin, err := f.svc.CreateUser("admin", core.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.auth.SetPassword(admin.ID, "admin-pw"); err != nil {
		t.Fatal(err)
	}
	viewer, _ := f.svc.CreateUser("viewer", core.RoleViewer)
	f.auth.SetPassword(viewer.ID, "viewer-pw")

	// Without a session, management calls are rejected.
	anon := client.NewClient(f.ts.URL)
	if _, err := anon.ListProjects(); err == nil {
		t.Fatal("anonymous ListProjects succeeded")
	}
	// Wrong credentials rejected.
	c := client.NewClient(f.ts.URL)
	if err := c.Login("admin", "wrong"); err == nil {
		t.Fatal("bad login accepted")
	}
	// Admin can do everything.
	if err := c.Login("admin", "admin-pw"); err != nil {
		t.Fatal(err)
	}
	p, err := c.CreateProject("p", "", admin.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Viewer can read but not write.
	cv := client.NewClient(f.ts.URL)
	if err := cv.Login("viewer", "viewer-pw"); err != nil {
		t.Fatal(err)
	}
	if _, err := cv.ListProjects(); err != nil {
		t.Fatalf("viewer read: %v", err)
	}
	if _, err := cv.CreateProject("nope", "", viewer.ID, nil); err == nil {
		t.Fatal("viewer write accepted")
	}
	if _, err := cv.CreateUser("x", core.RoleViewer); err == nil {
		t.Fatal("viewer admin-op accepted")
	}
	// Logout invalidates the session.
	if err := c.Logout(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ListProjects(); err == nil {
		t.Fatal("logged-out session still valid")
	}
	_ = p
}

func TestErrorStatusMapping(t *testing.T) {
	f := newFixture(t, false, "")
	c := client.NewClient(f.ts.URL)
	// Not found.
	if _, err := c.GetJob("job-000000404"); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("404 mapping: %v", err)
	}
	// Invalid transition -> conflict.
	u, _ := c.CreateUser("u", core.RoleAdmin)
	p, _ := c.CreateProject("p", "", u.ID, nil)
	sys, _ := c.RegisterSystem("s", "", nil, nil)
	dep, _ := c.CreateDeployment(sys.ID, "d", "", "")
	exp, _ := c.CreateExperiment(p.ID, sys.ID, "e", "", nil, 0)
	_, jobs, _ := c.CreateEvaluation(exp.ID)
	j, _, _ := c.ClaimJob(dep.ID)
	if err := c.Complete(j.ID, []byte("{}"), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(j.ID, []byte("{}"), nil); err == nil {
		t.Fatal("double complete accepted")
	}
	_ = jobs
	// Bad request body.
	resp, err := f.ts.Client().Post(f.ts.URL+"/api/v1/projects", "application/json", strings.NewReader("{invalid"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad body status = %d", resp.StatusCode)
	}
	// A store whose WAL failed -> 500 with the failure's text.
	rec := httptest.NewRecorder()
	fail(rec, fmt.Errorf("core: complete: %w: %w", relstore.ErrWALFailed, errors.New("no space left on device")))
	if rec.Code != 500 || !strings.Contains(rec.Body.String(), "no space left on device") {
		t.Fatalf("failed WAL: %d %s", rec.Code, rec.Body)
	}
}

func TestAbortVisibleToAgentOverREST(t *testing.T) {
	f := newFixture(t, false, "")
	c := client.NewClient(f.ts.URL)
	u, _ := c.CreateUser("u", core.RoleAdmin)
	p, _ := c.CreateProject("p", "", u.ID, nil)
	sys, _ := c.RegisterSystem("s", "", nil, nil)
	dep, _ := c.CreateDeployment(sys.ID, "d", "", "")
	exp, _ := c.CreateExperiment(p.ID, sys.ID, "e", "", nil, 0)
	c.CreateEvaluation(exp.ID)

	j, _, err := c.ClaimJob(dep.ID)
	if err != nil || j == nil {
		t.Fatal(err)
	}
	if err := c.AbortJob(j.ID); err != nil {
		t.Fatal(err)
	}
	st, err := c.Heartbeat(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st != core.StatusAborted {
		t.Fatalf("agent saw %s, want aborted", st)
	}
}
