package rest

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"

	"chronos/internal/api"
	"chronos/internal/core"
	"chronos/internal/httputil"
	"chronos/internal/relstore"
)

// bodyHarness serves the real handler against a memory store holding a
// user "u" (user-000000001) and a system "s" (system-000000001), and
// calls it, failing t on a 5xx.
func bodyHarness(t *testing.T) (*core.Service, func(method, path string, body []byte) (int, []byte)) {
	svc, err := core.NewService(relstore.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateUser("u", core.RoleAdmin); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterSystem("s", "", nil, nil); err != nil {
		t.Fatal(err)
	}
	server := NewServer(svc)
	server.Logger = log.New(io.Discard, "", 0)
	h := server.Handler()
	return svc, func(method, path string, body []byte) (int, []byte) {
		r := httptest.NewRequest(method, path, bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code >= 500 {
			t.Fatalf("%s %s %q: %d %s", method, path, body, w.Code, w.Body)
		}
		return w.Code, w.Body.Bytes()
	}
}

// acceptedBody posts body to path and reports whether it was created.
// A refused body must leave the store's row count as it was; an accepted
// one must decode as a request into q.
func acceptedBody(t *testing.T, svc *core.Service, call func(string, string, []byte) (int, []byte), path string, body []byte, q any) ([]byte, bool) {
	rows := svc.Store().DB().RowCount()
	code, answer := call(http.MethodPost, path, body)
	if code != http.StatusCreated {
		if got := svc.Store().DB().RowCount(); got != rows {
			t.Fatalf("%q refused with %d, and the store went from %d rows to %d", body, code, rows, got)
		}
		return nil, false
	}
	if err := httputil.DecodeJSON(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), q); err != nil {
		t.Fatalf("%q was accepted, but does not decode: %v", body, err)
	}
	return answer, true
}

// FuzzCreateUserBody: a POST /users body is client input. No body panics
// the handler or gets a 5xx, a refused body writes nothing (an empty
// name, an unknown role, the name of the existing user), and an accepted
// user reads back as it was answered, with the body's name and role. The
// seeds are committed under testdata/fuzz/FuzzCreateUserBody.
func FuzzCreateUserBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		svc, call := bodyHarness(t)
		var q api.CreateUserRequest
		answer, ok := acceptedBody(t, svc, call, "/api/v2/users", body, &q)
		if !ok {
			return
		}
		var u core.User
		if err := httputil.ReadEnvelope(answer, &u); err != nil {
			t.Fatalf("%q: answer %s: %v", body, answer, err)
		}
		if u.Name != q.Name || u.Role != q.Role || u.Disabled {
			t.Fatalf("%q: user answered %s", body, answer)
		}
		if _, again := call(http.MethodGet, "/api/v2/users/"+u.ID, nil); !bytes.Equal(again, answer) {
			t.Fatalf("%q: user answered %s, reads back %s", body, answer, again)
		}
	})
}

// FuzzCreateDeploymentBody: a POST /deployments body is client input. No
// body panics the handler or gets a 5xx, a refused body writes nothing
// (an unknown system), and an accepted deployment is active, carries the
// body's fields and is listed under its system as it was answered. The
// seeds are committed under testdata/fuzz/FuzzCreateDeploymentBody.
func FuzzCreateDeploymentBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		svc, call := bodyHarness(t)
		var q api.CreateDeploymentRequest
		answer, ok := acceptedBody(t, svc, call, "/api/v2/deployments", body, &q)
		if !ok {
			return
		}
		var raw json.RawMessage
		var d core.Deployment
		if err := httputil.ReadEnvelope(answer, &raw); err != nil || json.Unmarshal(raw, &d) != nil {
			t.Fatalf("%q: answer %s: %v", body, answer, err)
		}
		if d.SystemID != q.SystemID || d.Name != q.Name || d.Environment != q.Environment || d.Version != q.Version || !d.Active {
			t.Fatalf("%q: deployment answered %s", body, answer)
		}
		_, list := call(http.MethodGet, "/api/v2/deployments?system="+d.SystemID, nil)
		var listed []json.RawMessage
		if err := httputil.ReadEnvelope(list, &listed); err != nil || len(listed) != 1 || !bytes.Equal(listed[0], raw) {
			t.Fatalf("%q: deployment answered %s, its system lists %s", body, answer, list)
		}
	})
}
