package rest

import (
	"bytes"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"

	"chronos/internal/api"
	"chronos/internal/core"
	"chronos/internal/httputil"
	"chronos/internal/params"
	"chronos/internal/relstore"
)

// FuzzCompleteBody: a POST /jobs/{id}/complete body is agent input, and
// it goes through the real handler against a memory store holding one
// claimed job (and one more scheduled on its deployment, for claimNext).
// No body panics the handler or gets a 5xx. A refused body leaves the
// job running with no result and no log; an accepted one finishes it
// exactly once, storing the body's result, archive and log, and the
// same body sent again is refused without a second finish. The seeds
// are committed under testdata/fuzz/FuzzCompleteBody.
func FuzzCompleteBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		svc, h, jobID := claimedJob(t)
		post := func() int {
			r := httptest.NewRequest(http.MethodPost, "/api/v2/jobs/"+jobID+"/complete", bytes.NewReader(body))
			r.Header.Set("Content-Type", "application/json")
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			if w.Code >= 500 {
				t.Fatalf("%q: %d %s", body, w.Code, w.Body)
			}
			return w.Code
		}
		code := post()
		job, err := svc.GetJob(jobID)
		if err != nil {
			t.Fatal(err)
		}
		logs, err := svc.JobLogs(jobID)
		if err != nil {
			t.Fatal(err)
		}
		result, rerr := svc.GetJobResult(jobID)
		if code != http.StatusOK {
			if job.Status != core.StatusRunning || len(logs) != 0 || !errors.Is(rerr, core.ErrNotFound) {
				t.Fatalf("%q refused with %d, then the job is %s with %d log chunks and result %+v (%v)",
					body, code, job.Status, len(logs), result, rerr)
			}
			return
		}
		var q api.CompleteRequest
		if err := httputil.DecodeJSON(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), &q); err != nil {
			t.Fatalf("%q was accepted, but does not decode: %v", body, err)
		}
		if job.Status != core.StatusFinished {
			t.Fatalf("%q was accepted, and the job is %s", body, job.Status)
		}
		if rerr != nil || !bytes.Equal(result.JSON, q.ResultJSON) || !bytes.Equal(result.Archive, q.Archive) {
			t.Fatalf("%q was accepted, and the result is %+v (%v)", body, result, rerr)
		}
		if wantLogs := btoi(q.Log != ""); len(logs) != wantLogs || wantLogs == 1 && logs[0].Text != q.Log {
			t.Fatalf("%q was accepted, and the log is %+v", body, logs)
		}
		if again := post(); again != http.StatusConflict {
			t.Fatalf("%q sent again: %d, want %d", body, again, http.StatusConflict)
		}
		events, err := svc.JobTimeline(jobID)
		if err != nil {
			t.Fatal(err)
		}
		finished := 0
		for _, e := range events {
			finished += btoi(e.Kind == core.EventFinished)
		}
		if finished != 1 {
			t.Fatalf("%q: %d finished events, want 1", body, finished)
		}
	})
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// claimedJob builds a memory store whose deployment (deployment-000000001)
// has two jobs, claims one and returns the service, the server's handler
// and the claimed job's id.
func claimedJob(t *testing.T) (*core.Service, http.Handler, string) {
	t.Helper()
	svc, err := core.NewService(relstore.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := svc.CreateUser("u", core.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	p, err := svc.CreateProject("p", "", u.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := svc.RegisterSystem("mongodb", "", mongoDefs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := svc.CreateDeployment(sys.ID, "d", "", "")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := svc.CreateExperiment(p.ID, sys.ID, "e", "", map[string][]params.Value{
		"threads": {params.Int(1), params.Int(2)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.CreateEvaluation(exp.ID); err != nil {
		t.Fatal(err)
	}
	job, _, err := svc.ClaimJob(dep.ID)
	if err != nil || job == nil {
		t.Fatalf("claim: %v, %v", job, err)
	}
	server := NewServer(svc)
	server.Logger = log.New(io.Discard, "", 0)
	return svc, server.Handler(), job.ID
}
