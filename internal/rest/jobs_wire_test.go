package rest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"chronos/internal/api"
	"chronos/internal/core"
	"chronos/internal/params"
)

// encodeEnvelope is what the server wrote for every answer before the job
// answers were appended: json.Encoder over the success envelope.
func encodeEnvelope(t *testing.T, data any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(struct {
		Data any `json:"data,omitempty"`
	}{data}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestJobAnswersAreTheEncodersBytes: the create answer and the job list,
// which append their JSON, answer the bytes json.Encoder writes for the
// same value — with parameter values and an error text that need HTML
// escaping, and a failed job's deployment, error and times set.
func TestJobAnswersAreTheEncodersBytes(t *testing.T) {
	f := newFixture(t, false, "")
	svc := f.svc
	u, err := svc.CreateUser("u", core.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	p, err := svc.CreateProject("p", "", u.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	defs := append(mongoDefs(), params.Definition{Name: "tag<&>", Type: params.TypeValue, ValueKind: params.KindString, Default: params.String_("a<b>&c ")})
	sys, err := svc.RegisterSystem("mongodb", "", defs, nil)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := svc.CreateDeployment(sys.ID, "d", "", "")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := svc.CreateExperiment(p.ID, sys.ID, "e", "", map[string][]params.Value{
		"engine": {params.String_("wiredtiger"), params.String_("mmapv1")}, "threads": {params.Int(1), params.Int(64)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(api.CreateEvaluationRequest{ExperimentID: exp.ID})
	code, got := f.raw(t, http.MethodPost, "/api/v2/evaluations", string(body))
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, got)
	}
	evs, err := svc.ListEvaluations(exp.ID)
	if err != nil || len(evs) != 1 {
		t.Fatalf("evaluations: %v %v", evs, err)
	}
	jobs, err := svc.ListJobs(evs[0].ID)
	if err != nil || len(jobs) != 4 {
		t.Fatalf("jobs: %v %v", jobs, err)
	}
	if want := encodeEnvelope(t, api.CreateEvaluationResponse{Evaluation: evs[0], Jobs: jobs}); got != want {
		t.Fatalf("create answered\n%s\nwant\n%s", got, want)
	}

	j, ok, err := svc.ClaimJob(dep.ID)
	if err != nil || !ok {
		t.Fatalf("claim: %v %v", ok, err)
	}
	f.clock.Advance(1500 * time.Millisecond)
	if err := svc.FailJob(j.ID, `disk <full> & "stuck"`, ""); err != nil {
		t.Fatal(err)
	}
	if jobs, err = svc.ListJobs(evs[0].ID); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/api/v1/evaluations/" + evs[0].ID + "/jobs", "/api/v2/evaluations/" + evs[0].ID + "/jobs"} {
		if code, got := f.raw(t, http.MethodGet, path, ""); code != http.StatusOK || got != encodeEnvelope(t, jobs) {
			t.Fatalf("%s: %d\n%s\nwant\n%s", path, code, got, encodeEnvelope(t, jobs))
		}
	}
	none, err := svc.ListJobs("evaluation-000000404")
	if err != nil {
		t.Fatal(err)
	}
	if code, got := f.raw(t, http.MethodGet, "/api/v2/evaluations/evaluation-000000404/jobs", ""); code != http.StatusOK || got != encodeEnvelope(t, none) {
		t.Fatalf("jobs of no evaluation: %d %s, want %s", code, got, encodeEnvelope(t, none))
	}
}
