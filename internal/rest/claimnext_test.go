package rest

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"chronos/internal/api"
	"chronos/internal/core"
	"chronos/internal/httputil"
	"chronos/internal/metrics"
	"chronos/internal/params"
)

// TestClaimNextOnBothVersions drives complete's claimNext and the release
// route over raw HTTP on each API version: the answer to a complete that
// asked is the claim response of the version asked (v2 alone inlines the
// parameter definitions), both halves are one commit, a complete that did
// not ask is answered "completed" as ever, and a released job is scheduled
// again with its attempt unspent.
func TestClaimNextOnBothVersions(t *testing.T) {
	for _, v := range APIVersions {
		t.Run(v, func(t *testing.T) {
			f, commits, depID := countedFixture(t) // four jobs
			post := func(path, body string, want int) (data json.RawMessage) {
				t.Helper()
				before := commits.Value()
				code, resp := f.raw(t, http.MethodPost, "/api/"+v+path, body)
				if code != want {
					t.Fatalf("%s: %d %s, want %d", path, code, resp, want)
				}
				if got := commits.Value() - before; got != 1 {
					t.Fatalf("%s made %d commits, want 1", path, got)
				}
				var env struct {
					Data json.RawMessage `json:"data"`
				}
				if err := json.Unmarshal([]byte(resp), &env); err != nil {
					t.Fatalf("%s: %v in %s", path, err, resp)
				}
				return env.Data
			}
			first, _, err := f.svc.ClaimJob(depID)
			if err != nil {
				t.Fatal(err)
			}

			// Asked: the answer is a claim response.
			data := post("/jobs/"+first.ID+"/complete",
				`{"resultJson":"eyJ2IjoxfQ==","log":"tail\n","claimNext":"`+depID+`"}`, http.StatusOK)
			var claimed api.ClaimResponse
			if err := json.Unmarshal(data, &claimed); err != nil {
				t.Fatalf("answer to a complete that asked is no claim response: %s (%v)", data, err)
			}
			if claimed.Job == nil || claimed.Job.Status != core.StatusRunning || claimed.Job.Attempts != 1 ||
				claimed.Job.DeploymentID != depID || claimed.Job.ID == first.ID {
				t.Fatalf("claimed = %+v", claimed.Job)
			}
			if hasDefs := strings.Contains(string(data), `"parameters"`); hasDefs != (v == "v2") {
				t.Fatalf("%s answer: parameters present = %v: %s", v, hasDefs, data)
			}
			if v == "v2" && len(claimed.Parameters) != len(mongoDefs()) {
				t.Fatalf("v2 parameters = %+v", claimed.Parameters)
			}
			if j, _ := f.svc.GetJob(first.ID); j.Status != core.StatusFinished {
				t.Fatalf("completed job is %s", j.Status)
			}
			if logs, _ := f.svc.JobLogs(first.ID); len(logs) != 1 || logs[0].Text != "tail\n" {
				t.Fatalf("chunks = %+v", logs)
			}

			// Not asked: the body is what it always was.
			second := claimed.Job
			if data := post("/jobs/"+second.ID+"/complete", `{"resultJson":"eyJ2IjoxfQ=="}`, http.StatusOK); string(data) != `"completed"` {
				t.Fatalf("plain complete answered %s", data)
			}

			// Asked for a deployment that cannot be served: the completion
			// stands, the answer is an empty claim.
			third, _, _ := f.svc.ClaimJob(depID)
			if data := post("/jobs/"+third.ID+"/complete",
				`{"resultJson":"eyJ2IjoxfQ==","claimNext":"deployment-missing"}`, http.StatusOK); string(data) != `{}` {
				t.Fatalf("claimNext for an unknown deployment answered %s", data)
			}

			// Refused: 409 as without claimNext, nothing claimed.
			fourth, _, _ := f.svc.ClaimJob(depID)
			if code, resp := f.raw(t, http.MethodPost, "/api/"+v+"/jobs/"+first.ID+"/complete",
				`{"resultJson":"eyJ2IjoxfQ==","claimNext":"`+depID+`"}`); code != http.StatusConflict {
				t.Fatalf("second complete of a finished job: %d %s", code, resp)
			}

			// Hand-back.
			if data := post("/jobs/"+fourth.ID+"/release", "", http.StatusOK); string(data) != `"released"` {
				t.Fatalf("release answered %s", data)
			}
			j, _ := f.svc.GetJob(fourth.ID)
			if j.Status != core.StatusScheduled || j.Attempts != 0 || j.DeploymentID != "" {
				t.Fatalf("released job = %+v", j)
			}
			if code, resp := f.raw(t, http.MethodPost, "/api/"+v+"/jobs/"+fourth.ID+"/release", ""); code != http.StatusConflict {
				t.Fatalf("release of a scheduled job: %d %s", code, resp)
			}
			if code, resp := f.raw(t, http.MethodPost, "/api/"+v+"/jobs/job-999999999/release", ""); code != http.StatusNotFound {
				t.Fatalf("release of a missing job: %d %s", code, resp)
			}

			// The empty queue: job absent, as POST /jobs/claim answers it.
			last, _, _ := f.svc.ClaimJob(depID)
			if last == nil || last.ID != fourth.ID {
				t.Fatalf("claim after release = %+v", last)
			}
			if data := post("/jobs/"+last.ID+"/complete",
				`{"resultJson":"eyJ2IjoxfQ==","claimNext":"`+depID+`"}`, http.StatusOK); string(data) != `{}` {
				t.Fatalf("claimNext on an empty queue answered %s", data)
			}
		})
	}
}

// TestReleaseIsAnAgentCall: the hand-back sits behind the agent gate like
// the claim it undoes.
func TestReleaseIsAnAgentCall(t *testing.T) {
	f := newFixture(t, false, "s3cret")
	code, body := f.raw(t, http.MethodPost, "/api/v2/jobs/job-000000001/release", "")
	if code != http.StatusUnauthorized {
		t.Fatalf("release without the agent token: %d %s", code, body)
	}
}

// TestClaimedAndReleasedCounters: the leader says how jobs leave the queue
// and come back. A job claimed by a complete counts under via="complete"
// only, one claimed by POST /jobs/claim under via="claim" only, a release
// under chronos_jobs_released_total.
func TestClaimedAndReleasedCounters(t *testing.T) {
	f, _, depID := countedFixture(t) // four jobs
	scrape := func() (byClaim, byComplete, released float64) {
		t.Helper()
		resp, err := http.Get(f.ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		samples, err := metrics.ParseText(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			switch {
			case s.Name == "chronos_jobs_claimed_total" && s.Label("via") == "claim":
				byClaim = s.Value
			case s.Name == "chronos_jobs_claimed_total" && s.Label("via") == "complete":
				byComplete = s.Value
			case s.Name == "chronos_jobs_released_total":
				released = s.Value
			}
		}
		return
	}
	want := func(step string, c, x, r float64) {
		t.Helper()
		if gc, gx, gr := scrape(); gc != c || gx != x || gr != r {
			t.Fatalf("%s: claimed via claim %v, via complete %v, released %v; want %v, %v, %v", step, gc, gx, gr, c, x, r)
		}
	}
	post := func(path, body string) string {
		t.Helper()
		code, resp := f.raw(t, http.MethodPost, "/api/v2"+path, body)
		if code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, code, resp)
		}
		return resp
	}
	jobID := func(resp string) string {
		t.Helper()
		var env struct {
			Data api.ClaimResponse `json:"data"`
		}
		if err := json.Unmarshal([]byte(resp), &env); err != nil || env.Data.Job == nil {
			t.Fatalf("no job in %s (%v)", resp, err)
		}
		return env.Data.Job.ID
	}

	want("idle", 0, 0, 0)
	first := jobID(post("/jobs/claim", `{"deploymentId":"`+depID+`"}`))
	want("a claim", 1, 0, 0)
	second := jobID(post("/jobs/"+first+"/complete", `{"resultJson":"e30=","claimNext":"`+depID+`"}`))
	want("a complete that claimed", 1, 1, 0)
	post("/jobs/"+second+"/release", "")
	want("a release", 1, 1, 1)
	// An empty claim and a complete that claimed nothing count nothing.
	second = jobID(post("/jobs/claim", `{"deploymentId":"`+depID+`"}`))
	third := jobID(post("/jobs/"+second+"/complete", `{"resultJson":"e30=","claimNext":"`+depID+`"}`))
	fourth := jobID(post("/jobs/"+third+"/complete", `{"resultJson":"e30=","claimNext":"`+depID+`"}`))
	want("claim and two completes", 2, 3, 1)
	post("/jobs/"+fourth+"/complete", `{"resultJson":"e30=","claimNext":"`+depID+`"}`)
	post("/jobs/claim", `{"deploymentId":"`+depID+`"}`)
	want("an empty queue", 2, 3, 1)
}

// TestClaimAnswersKeepTheirBytes: a claim and a complete with claimNext
// answer, on each API version, the bytes the server wrote when it encoded
// an api.ClaimResponse holding the job and its system's decoded parameter
// definitions. The definitions go out as the store holds them, never
// decoded, so they must match to the byte — characters JSON escapes
// included — and a system without any answers no "parameters" key.
func TestClaimAnswersKeepTheirBytes(t *testing.T) {
	f := newFixture(t, false, "")
	u, _ := f.svc.CreateUser("u", core.RoleAdmin)
	p, _ := f.svc.CreateProject("p", "", u.ID, nil)
	defs := mongoDefs()
	defs[0].Description = "<storage> & \"engine\" "
	rich, err := f.svc.RegisterSystem("rich", "", defs, nil)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := f.svc.RegisterSystem("bare", "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// encoded is the claim answer as a decoded System made it.
	encoded := func(version, jobID string) string {
		t.Helper()
		job, err := f.svc.GetJob(jobID)
		if err != nil {
			t.Fatal(err)
		}
		resp := api.ClaimResponse{Job: job}
		if version == "v2" {
			sys, err := f.svc.GetSystem(job.SystemID)
			if err != nil {
				t.Fatal(err)
			}
			resp.Parameters = sys.Parameters
		}
		rec := httptest.NewRecorder()
		httputil.WriteJSON(rec, http.StatusOK, resp)
		return rec.Body.String()
	}
	claimed := func(body string) string {
		t.Helper()
		var env struct {
			Data api.ClaimResponse `json:"data"`
		}
		if err := json.Unmarshal([]byte(body), &env); err != nil || env.Data.Job == nil {
			t.Fatalf("no job in %s (%v)", body, err)
		}
		return env.Data.Job.ID
	}
	for _, sys := range []*core.System{rich, bare} {
		dep, err := f.svc.CreateDeployment(sys.ID, "d", "", "")
		if err != nil {
			t.Fatal(err)
		}
		var settings map[string][]params.Value
		if sys == rich {
			settings = map[string][]params.Value{"threads": {params.Int(1), params.Int(2)}}
		}
		exp, err := f.svc.CreateExperiment(p.ID, sys.ID, "e", "", settings, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if _, _, err := f.svc.CreateEvaluation(exp.ID); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range APIVersions {
			code, body := f.raw(t, http.MethodPost, "/api/"+v+"/jobs/claim", `{"deploymentId":"`+dep.ID+`"}`)
			id := claimed(body)
			if want := encoded(v, id); code != http.StatusOK || body != want {
				t.Fatalf("%s %s claim answered %d\n%s\nwant\n%s", sys.Name, v, code, body, want)
			}
			if hasDefs := strings.Contains(body, `"parameters"`); hasDefs != (v == "v2" && sys == rich) {
				t.Fatalf("%s %s claim: parameters present = %v: %s", sys.Name, v, hasDefs, body)
			}
			code, body = f.raw(t, http.MethodPost, "/api/"+v+"/jobs/"+id+"/complete",
				`{"resultJson":"e30=","claimNext":"`+dep.ID+`"}`)
			if want := encoded(v, claimed(body)); code != http.StatusOK || body != want {
				t.Fatalf("%s %s complete with claimNext answered %d\n%s\nwant\n%s", sys.Name, v, code, body, want)
			}
		}
	}
}
