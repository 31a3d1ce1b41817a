package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"chronos/internal/auth"
	"chronos/internal/core"
	"chronos/internal/relstore"
	"chronos/internal/rest"
)

// TestMountGatesUIWithServerAuth: the handler the process serves puts the
// web UI behind the REST server's session auth — open without it, closed
// with it — while the API's own open routes stay reachable.
func TestMountGatesUIWithServerAuth(t *testing.T) {
	db := relstore.OpenMemory()
	svc, err := core.NewService(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := auth.New(db, svc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name             string
		auth             *auth.Authenticator
		page, abort, api int
	}{
		{"auth off", nil, http.StatusOK, http.StatusNotFound, http.StatusOK},
		{"auth on", a, http.StatusSeeOther, http.StatusUnauthorized, http.StatusOK},
	} {
		server := rest.NewServer(svc)
		server.Auth = tc.auth
		h, err := mount(server, svc)
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range []struct {
			method, path string
			want         int
		}{
			{"GET", "/projects", tc.page},
			{"POST", "/jobs/job-000000001/abort", tc.abort},
			{"GET", "/api/v2/ping", tc.api},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(req.method, req.path, nil))
			if rec.Code != req.want {
				t.Errorf("%s: %s %s -> %d, want %d", tc.name, req.method, req.path, rec.Code, req.want)
			}
		}
	}
}
