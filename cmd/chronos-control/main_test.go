package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
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

// TestMain lets a test run this binary as chronos-control itself: with
// CHRONOS_CONTROL_AS_MAIN set, the process is main() over its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("CHRONOS_CONTROL_AS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRemovedClaimFlagsAreUsageErrors: claim delegation is gone, not
// switched off, and its flags with it — chronos-control refuses them the
// way it refuses any flag it never had, before it opens a store. Bringing
// one back has to change this test.
func TestRemovedClaimFlagsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-claim-delegate", "follower-a"},
		{"-replicate-from", "http://127.0.0.1:1", "-claim-lease-ttl", "5s"},
	} {
		cmd := exec.Command(os.Args[0], append(args, "-data", t.TempDir())...)
		cmd.Env = append(os.Environ(), "CHRONOS_CONTROL_AS_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("chronos-control %v: %v, want exit status 2\n%s", args, err, out)
		}
		if want := "flag provided but not defined: " + args[len(args)-2]; !strings.Contains(string(out), want) {
			t.Fatalf("chronos-control %v printed\n%s\nwant %q", args, out, want)
		}
	}
}
