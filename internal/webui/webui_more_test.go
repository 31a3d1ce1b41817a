package webui_test

import (
	"net/url"
	"strings"
	"testing"

	"chronos/internal/core"
)

func TestNotFoundPages(t *testing.T) {
	f := newFixture(t)
	for _, path := range []string{
		"/projects/project-000000404",
		"/systems/system-000000404",
		"/experiments/experiment-000000404",
		"/evaluations/evaluation-000000404",
		"/evaluations/evaluation-000000404/results",
		"/jobs/job-000000404",
	} {
		f.get(t, path, 404)
	}
}

func TestRescheduleFromUI(t *testing.T) {
	f := newFixture(t)
	// Fail a fresh job through the service, then re-schedule via the UI.
	_, jobs, err := f.svc.CreateEvaluation(f.experimentID)
	if err != nil {
		t.Fatal(err)
	}
	j, ok, err := f.svc.ClaimJob(f.deploymentID)
	if err != nil || !ok {
		t.Fatal(err)
	}
	// Exhaust the attempt budget so the failure sticks.
	for {
		if err := f.svc.FailJob(j.ID, "ui-test failure"); err != nil {
			t.Fatal(err)
		}
		got, _ := f.svc.GetJob(j.ID)
		if got.Status == core.StatusFailed {
			break
		}
		if j, ok, err = f.svc.ClaimJob(f.deploymentID); err != nil || !ok {
			t.Fatal(err)
		}
	}
	// The failed job's page offers Re-schedule and shows the error.
	body := f.get(t, "/jobs/"+j.ID, 200)
	if !strings.Contains(body, "Re-schedule") || !strings.Contains(body, "ui-test failure") {
		t.Fatalf("failed job page:\n%s", body)
	}
	resp, err := f.ts.Client().Post(f.ts.URL+"/jobs/"+j.ID+"/reschedule", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got, _ := f.svc.GetJob(j.ID)
	if got.Status != core.StatusScheduled {
		t.Fatalf("after UI reschedule: %s", got.Status)
	}
	_ = jobs
}

func TestResultsPageWithoutFinishedJobs(t *testing.T) {
	f := newFixture(t)
	ev, _, err := f.svc.CreateEvaluation(f.experimentID)
	if err != nil {
		t.Fatal(err)
	}
	body := f.get(t, "/evaluations/"+ev.ID+"/results", 200)
	if !strings.Contains(body, "No finished jobs yet") {
		t.Fatalf("empty results page:\n%s", body)
	}
}

func TestDeploymentsPage(t *testing.T) {
	f := newFixture(t)
	body := f.get(t, "/deployments", 200)
	if !strings.Contains(body, "sim-1") || !strings.Contains(body, f.systemID) {
		t.Fatalf("deployments page:\n%s", body)
	}
}

func TestNewExperimentFormFlow(t *testing.T) {
	f := newFixture(t)
	// Without a system: chooser page.
	body := f.get(t, "/projects/"+f.projectID+"/experiments/new", 200)
	if !strings.Contains(body, "Choose the System") {
		t.Fatalf("chooser missing:\n%s", body)
	}
	// With a system: a form listing every parameter.
	body = f.get(t, "/projects/"+f.projectID+"/experiments/new?system="+f.systemID, 200)
	for _, want := range []string{"param_engine", "param_threads", "param_mix", "Create Experiment"} {
		if !strings.Contains(body, want) {
			t.Fatalf("form missing %q", want)
		}
	}
	// Submitting the form creates the experiment with parsed settings.
	form := url.Values{
		"system":        {f.systemID},
		"name":          {"form-made"},
		"description":   {"via UI"},
		"param_engine":  {"wiredtiger,mmapv1"},
		"param_threads": {"1,2"},
		"param_mix":     {"95:5"},
		"maxAttempts":   {"2"},
	}
	resp, err := f.ts.Client().PostForm(f.ts.URL+"/projects/"+f.projectID+"/experiments", form)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	exps, _ := f.svc.ListExperiments(f.projectID)
	var found bool
	for _, e := range exps {
		if e.Name != "form-made" {
			continue
		}
		found = true
		if len(e.Settings["engine"]) != 2 || len(e.Settings["threads"]) != 2 || len(e.Settings["mix"]) != 1 {
			t.Fatalf("settings = %+v", e.Settings)
		}
		if e.MaxAttempts != 2 {
			t.Fatalf("maxAttempts = %d", e.MaxAttempts)
		}
		// The created experiment expands to 2x2 jobs.
		_, jobs, err := f.svc.CreateEvaluation(e.ID)
		if err != nil || len(jobs) != 4 {
			t.Fatalf("evaluation of form experiment: %d jobs, %v", len(jobs), err)
		}
	}
	if !found {
		t.Fatal("form experiment not created")
	}
	// Invalid variants produce a 400, not a broken experiment.
	form.Set("param_threads", "lots")
	form.Set("name", "broken")
	resp, _ = f.ts.Client().PostForm(f.ts.URL+"/projects/"+f.projectID+"/experiments", form)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("invalid form -> %d", resp.StatusCode)
	}
}
