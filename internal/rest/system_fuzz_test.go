package rest

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"chronos/internal/api"
	"chronos/internal/core"
	"chronos/internal/httputil"
	"chronos/internal/params"
	"chronos/internal/relstore"
)

// FuzzRegisterSystemBody: a POST /systems body is client input, and the
// parameter definitions it carries are what CreateEvaluation expands. It
// goes through the real handler against a memory store holding a user and
// a project. No body panics the handler or gets a 5xx. A refused body
// writes nothing. An accepted system reads back as it was answered, with
// the body's name, description and definitions; an experiment on it with
// default settings expands into one job holding each parameter's default,
// or, when a parameter is required, is refused. The seeds are committed
// under testdata/fuzz/FuzzRegisterSystemBody.
func FuzzRegisterSystemBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
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
		server := NewServer(svc)
		server.Logger = log.New(io.Discard, "", 0)
		h := server.Handler()
		call := func(method, path string, body []byte) (int, []byte) {
			r := httptest.NewRequest(method, path, bytes.NewReader(body))
			r.Header.Set("Content-Type", "application/json")
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			if w.Code >= 500 {
				t.Fatalf("%s %s %q: %d %s", method, path, body, w.Code, w.Body)
			}
			return w.Code, w.Body.Bytes()
		}

		rows := svc.Store().DB().RowCount()
		code, answer := call(http.MethodPost, "/api/v2/systems", body)
		if code != http.StatusCreated {
			if got := svc.Store().DB().RowCount(); got != rows {
				t.Fatalf("%q refused with %d, and the store went from %d rows to %d", body, code, rows, got)
			}
			return
		}
		var q api.RegisterSystemRequest
		if err := httputil.DecodeJSON(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), &q); err != nil {
			t.Fatalf("%q was accepted, but does not decode: %v", body, err)
		}
		var sys core.System
		if err := httputil.ReadEnvelope(answer, &sys); err != nil {
			t.Fatalf("%q: answer %s: %v", body, answer, err)
		}
		if _, again := call(http.MethodGet, "/api/v2/systems/"+sys.ID, nil); !bytes.Equal(again, answer) {
			t.Fatalf("%q: system answered %s, reads back %s", body, answer, again)
		}
		wantDefs, _ := json.Marshal(q.Parameters)
		gotDefs, _ := json.Marshal(sys.Parameters)
		if sys.Name != q.Name || sys.Description != q.Description || !bytes.Equal(gotDefs, wantDefs) {
			t.Fatalf("%q: system answered %s", body, answer)
		}

		exp, _ := json.Marshal(api.CreateExperimentRequest{ProjectID: p.ID, SystemID: sys.ID, Name: "e"})
		code, answer = call(http.MethodPost, "/api/v2/experiments", exp)
		required := slices.ContainsFunc(q.Parameters, func(d params.Definition) bool { return d.Required })
		if required {
			if code != http.StatusBadRequest {
				t.Fatalf("%q: an experiment leaving a required parameter unset answered %d %s", body, code, answer)
			}
			return
		}
		var e core.Experiment
		if err := httputil.ReadEnvelope(answer, &e); code != http.StatusCreated || err != nil {
			t.Fatalf("%q: experiment with default settings: %d %s", body, code, answer)
		}
		ev, _ := json.Marshal(api.CreateEvaluationRequest{ExperimentID: e.ID})
		code, answer = call(http.MethodPost, "/api/v2/evaluations", ev)
		var created api.CreateEvaluationResponse
		if err := httputil.ReadEnvelope(answer, &created); code != http.StatusCreated || err != nil || len(created.Jobs) != 1 {
			t.Fatalf("%q: evaluation with default settings: %d %s (%v)", body, code, answer, err)
		}
		job := created.Jobs[0]
		if len(job.Params) != len(q.Parameters) {
			t.Fatalf("%q: the job holds %d parameters, the system defines %d", body, len(job.Params), len(q.Parameters))
		}
		for _, d := range q.Parameters {
			if v, ok := job.Params[d.Name]; !ok || v.Kind() != d.Default.Kind() || !v.Equal(d.Default) {
				t.Fatalf("%q: the job holds %s=%v, want the default %v", body, d.Name, v, d.Default)
			}
		}
	})
}
