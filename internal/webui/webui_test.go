package webui_test

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/mongoagent"
	"chronos/internal/mongosim"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/internal/rest"
	"chronos/pkg/client"
)

// fixture builds a service with the full demo state: finished evaluation
// with results, a failed-able job etc., and serves the UI the way the
// process does: as rows of the HTTP edge's route table.
type fixture struct {
	svc    *core.Service
	server *rest.Server
	ts     *httptest.Server

	projectID, systemID, deploymentID, experimentID, evaluationID string
	jobIDs                                                        []string
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clock := metrics.NewManualClock(time.Date(2020, 3, 30, 9, 0, 0, 0, time.UTC))
	svc, err := core.NewService(relstore.OpenMemory(), clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{svc: svc}
	u, _ := svc.CreateUser("demo", core.RoleAdmin)
	p, _ := svc.CreateProject("mongodb-demo", "engine comparison", u.ID, nil)
	f.projectID = p.ID
	defs, diagrams := mongoagent.SystemDefinition()
	sys, err := svc.RegisterSystem(mongoagent.SystemName, "simulated mongodb", defs, diagrams)
	if err != nil {
		t.Fatal(err)
	}
	f.systemID = sys.ID
	dep, _ := svc.CreateDeployment(sys.ID, "sim-1", "local", "1")
	f.deploymentID = dep.ID
	exp, err := svc.CreateExperiment(p.ID, sys.ID, "engines", "", map[string][]params.Value{
		"engine":     {params.String_("wiredtiger"), params.String_("mmapv1")},
		"threads":    {params.Int(1), params.Int(2)},
		"records":    {params.Int(200)},
		"operations": {params.Int(400)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.experimentID = exp.ID
	ev, jobs, err := svc.CreateEvaluation(exp.ID)
	if err != nil {
		t.Fatal(err)
	}
	f.evaluationID = ev.ID
	for _, j := range jobs {
		f.jobIDs = append(f.jobIDs, j.ID)
	}
	f.server = rest.NewServer(svc)
	f.server.Logger = log.New(io.Discard, "", 0)
	f.ts = httptest.NewServer(f.server.Handler())
	t.Cleanup(f.ts.Close)
	// Execute the evaluation so the results page has data.
	a := &agent.Agent{
		Control:      client.NewClient(f.ts.URL, client.WithVersion("v2")),
		DeploymentID: dep.ID,
		Factory: mongoagent.NewFactory(mongosim.Options{
			WriteLatency: mongosim.NoIO, Seed: 1,
		}),
		ReportInterval: 5 * time.Millisecond,
	}
	if _, err := a.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	return f
}

// get fetches a page and returns its body.
func (f *fixture) get(t *testing.T, path string, wantStatus int) string {
	t.Helper()
	resp, err := f.ts.Client().Get(f.ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s -> %d (want %d): %s", path, resp.StatusCode, wantStatus, body)
	}
	return string(body)
}

func TestDashboard(t *testing.T) {
	f := newFixture(t)
	body := f.get(t, "/", 200)
	for _, want := range []string{"Evaluations-as-a-Service", "1 projects", "1 systems", "1 deployments"} {
		if !strings.Contains(body, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
}

func TestProjectPages(t *testing.T) {
	f := newFixture(t)
	body := f.get(t, "/projects", 200)
	if !strings.Contains(body, "mongodb-demo") {
		t.Fatal("project list missing project")
	}
	body = f.get(t, "/projects/"+f.projectID, 200)
	if !strings.Contains(body, "engines") || !strings.Contains(body, f.experimentID) {
		t.Fatal("project page missing experiment")
	}
	f.get(t, "/projects/project-000000404", 404)
}

func TestSystemPageShowsParameters(t *testing.T) {
	f := newFixture(t)
	body := f.get(t, "/systems/"+f.systemID, 200)
	// Fig 2: parameter table with types and defaults, diagrams, deployments.
	for _, want := range []string{"Storage Engine", "interval", "ratio", "wiredtiger",
		"Throughput vs Threads", "sim-1"} {
		if !strings.Contains(body, want) {
			t.Fatalf("system page missing %q", want)
		}
	}
	body = f.get(t, "/systems", 200)
	if !strings.Contains(body, mongoagent.SystemName) {
		t.Fatal("system list missing system")
	}
}

func TestExperimentAndEvaluationPages(t *testing.T) {
	f := newFixture(t)
	body := f.get(t, "/experiments/"+f.experimentID, 200)
	for _, want := range []string{"Parameter Settings", "engine", "Create Evaluation", f.evaluationID} {
		if !strings.Contains(body, want) {
			t.Fatalf("experiment page missing %q", want)
		}
	}
	body = f.get(t, "/evaluations/"+f.evaluationID, 200)
	for _, want := range []string{"4/4 finished", "status-finished", f.jobIDs[0]} {
		if !strings.Contains(body, want) {
			t.Fatalf("evaluation page missing %q", want)
		}
	}
}

// TestEvaluationPageCountsItsRows: the status bar above an evaluation's
// jobs table counts that table's rows and averages their progress — it is
// derived from the one listing the page reads, so a commit cannot land
// between the bar and the table.
func TestEvaluationPageCountsItsRows(t *testing.T) {
	f := newFixture(t)
	exp, err := f.svc.CreateExperiment(f.projectID, f.systemID, "mixed", "", map[string][]params.Value{
		"engine":  {params.String_("wiredtiger"), params.String_("mmapv1")},
		"threads": {params.Int(1), params.Int(2), params.Int(3)},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, jobs, err := f.svc.CreateEvaluation(exp.ID)
	if err != nil {
		t.Fatal(err)
	}
	// One job of every state: aborted, running at 40 %, finished, failed
	// (a budget of one attempt), the last two scheduled.
	if err := f.svc.AbortJob(jobs[0].ID); err != nil {
		t.Fatal(err)
	}
	claim := func() string {
		t.Helper()
		j, ok, err := f.svc.ClaimJob(f.deploymentID)
		if err != nil || !ok {
			t.Fatalf("claim: %v %v", ok, err)
		}
		return j.ID
	}
	if _, err := f.svc.Progress(claim(), 40); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.CompleteJob(claim(), []byte(`{"throughput": 1}`), nil); err != nil {
		t.Fatal(err)
	}
	if err := f.svc.FailJob(claim(), "boom", ""); err != nil {
		t.Fatal(err)
	}

	body := f.get(t, "/evaluations/"+ev.ID, 200)
	bar := regexp.MustCompile(`(\d+)/(\d+) finished ·\s*(\d+) running · (\d+) scheduled ·\s*(\d+) failed · (\d+) aborted\s*</p>\s*<div class="progress"><div style="width: (\d+)%"`).FindStringSubmatch(body)
	if bar == nil {
		t.Fatalf("evaluation page without a status bar:\n%s", body)
	}
	rows := map[string]int{}
	progress := 0
	for _, m := range regexp.MustCompile(`<td><span class="status status-(\w+)">\w+</span></td>\s*<td><div class="progress"><div style="width: \d+%"></div></div> (\d+)%</td>`).FindAllStringSubmatch(body, -1) {
		rows[m[1]]++
		p, _ := strconv.Atoi(m[2])
		progress += p
	}
	total := 0
	for _, n := range rows {
		total += n
	}
	want := []string{
		strconv.Itoa(rows["finished"]), strconv.Itoa(total), strconv.Itoa(rows["running"]), strconv.Itoa(rows["scheduled"]),
		strconv.Itoa(rows["failed"]), strconv.Itoa(rows["aborted"]), fmt.Sprintf("%.0f", float64(progress)/float64(total)),
	}
	if !slices.Equal(bar[1:], want) {
		t.Fatalf("status bar %q, rows below it %q", bar[1:], want)
	}
	if total != len(jobs) || rows["aborted"] != 1 || rows["running"] != 1 || rows["finished"] != 1 || rows["failed"] != 1 || rows["scheduled"] != 2 {
		t.Fatalf("rows by status %v, want one of each and two scheduled", rows)
	}
}

func TestJobPageShowsTimelineAndLog(t *testing.T) {
	f := newFixture(t)
	body := f.get(t, "/jobs/"+f.jobIDs[0], 200)
	for _, want := range []string{"Timeline", "claimed", "finished", "Log Output", "prepare: engine="} {
		if !strings.Contains(body, want) {
			t.Fatalf("job page missing %q", want)
		}
	}
	// Finished jobs offer neither abort nor reschedule.
	if strings.Contains(body, "Abort") || strings.Contains(body, "Re-schedule") {
		t.Fatal("finished job offers lifecycle buttons")
	}
}

func TestResultsPageRendersDiagrams(t *testing.T) {
	f := newFixture(t)
	body := f.get(t, "/evaluations/"+f.evaluationID+"/results", 200)
	for _, want := range []string{"<svg", "polyline", "throughput", "Raw Metrics"} {
		if !strings.Contains(body, want) {
			t.Fatalf("results page missing %q", want)
		}
	}
	// Both engine series appear in the chart legend.
	if !strings.Contains(body, "wiredtiger") || !strings.Contains(body, "mmapv1") {
		t.Fatal("results page missing engine series")
	}
}

func TestRunExperimentCreatesEvaluation(t *testing.T) {
	f := newFixture(t)
	before, _ := f.svc.ListEvaluations(f.experimentID)
	resp, err := f.ts.Client().Post(f.ts.URL+"/experiments/"+f.experimentID+"/run", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	after, _ := f.svc.ListEvaluations(f.experimentID)
	if len(after) != len(before)+1 {
		t.Fatalf("evaluations %d -> %d", len(before), len(after))
	}
}

func TestAbortAndRescheduleFromUI(t *testing.T) {
	f := newFixture(t)
	// Create a fresh evaluation with scheduled jobs.
	ev, jobs, err := f.svc.CreateEvaluation(f.experimentID)
	if err != nil {
		t.Fatal(err)
	}
	_ = ev
	// Scheduled job page offers Abort.
	body := f.get(t, "/jobs/"+jobs[0].ID, 200)
	if !strings.Contains(body, "Abort") {
		t.Fatal("scheduled job page missing abort button")
	}
	// Abort through the UI.
	resp, err := f.ts.Client().Post(f.ts.URL+"/jobs/"+jobs[0].ID+"/abort", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	j, _ := f.svc.GetJob(jobs[0].ID)
	if j.Status != core.StatusAborted {
		t.Fatalf("status after UI abort = %s", j.Status)
	}
	// Aborting again conflicts.
	req, _ := http.NewRequest("POST", f.ts.URL+"/jobs/"+jobs[0].ID+"/abort", nil)
	resp, _ = f.ts.Client().Do(req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double abort -> %d", resp.StatusCode)
	}
}

func TestJobPageShowsWorkloadPhases(t *testing.T) {
	f := newFixture(t)
	// A dynamic schedule produces per-phase rows on the job page.
	exp, err := f.svc.CreateExperiment(f.projectID, f.systemID, "drift", "", map[string][]params.Value{
		"records":    {params.Int(200)},
		"operations": {params.Int(300)},
		"schedule": {params.String_(
			"phase=steady,ops=200,mix=read:95+update:5;" +
				"phase=surge,ops=100,mix=insert:50+read:50,dist=latest,grow=1")},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, jobs, err := f.svc.CreateEvaluation(exp.ID)
	if err != nil {
		t.Fatal(err)
	}
	a := &agent.Agent{
		Control:      client.NewClient(f.ts.URL, client.WithVersion("v2")),
		DeploymentID: f.deploymentID,
		Factory: mongoagent.NewFactory(mongosim.Options{
			WriteLatency: mongosim.NoIO, Seed: 1,
		}),
		ReportInterval: 5 * time.Millisecond,
	}
	if _, err := a.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	body := f.get(t, "/jobs/"+jobs[0].ID, 200)
	for _, want := range []string{"Workload Phases", "steady", "surge", "insert=50%"} {
		if !strings.Contains(body, want) {
			t.Fatalf("job page missing %q", want)
		}
	}
	// Static jobs render no phase table.
	body = f.get(t, "/jobs/"+f.jobIDs[0], 200)
	if strings.Contains(body, "Workload Phases") {
		t.Fatal("static job page shows phase table")
	}
}
