package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the -h golden file from the binary's flags")

// TestMain lets a test run this binary as chronos-control itself: with
// CHRONOS_CONTROL_AS_MAIN set, the process is main() over its arguments,
// on a flag set of its own so the test binary's flags are not among them.
func TestMain(m *testing.M) {
	if os.Getenv("CHRONOS_CONTROL_AS_MAIN") != "" {
		flag.CommandLine = flag.NewFlagSet("chronos-control", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// asMain runs chronos-control over args and returns what it printed and
// its exit status.
func asMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CHRONOS_CONTROL_AS_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("chronos-control %v: %v", args, err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// TestHelpGolden pins the operator's surface the way routes.golden pins
// the HTTP one, and beside it: `chronos-control -h`, every flag with its
// default and its help. A new, changed or removed flag is a reviewed diff
// (go test ./cmd/chronos-control -run TestHelpGolden -update).
func TestHelpGolden(t *testing.T) {
	const golden = "../../internal/rest/testdata/chronos-control-h.golden"
	got, status := asMain(t, "-h")
	if status != 0 {
		t.Fatalf("chronos-control -h exited %d:\n%s", status, got)
	}
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("chronos-control -h differs from %s (run go test ./cmd/chronos-control -run TestHelpGolden -update and review the diff):\n%s", golden, got)
	}
}

// TestRemovedClaimFlagsAreUsageErrors: claim delegation is gone, not
// switched off, and its flags with it — and so is -session-auth, which
// switched on what the data now decides. chronos-control refuses them the
// way it refuses any flag it never had, before it opens a store. Bringing
// one back has to change this test.
func TestRemovedClaimFlagsAreUsageErrors(t *testing.T) {
	for removed, args := range map[string][]string{
		"-claim-delegate":  {"-claim-delegate", "follower-a"},
		"-claim-lease-ttl": {"-replicate-from", "http://127.0.0.1:1", "-claim-lease-ttl", "5s"},
		"-session-auth":    {"-replicate-from", "http://127.0.0.1:1", "-session-auth"},
	} {
		out, status := asMain(t, append(args, "-data", t.TempDir())...)
		if status != 2 {
			t.Fatalf("chronos-control %v exited %d, want 2\n%s", args, status, out)
		}
		if want := "flag provided but not defined: " + removed; !strings.Contains(out, want) {
			t.Fatalf("chronos-control %v printed\n%s\nwant %q", args, out, want)
		}
	}
}

// served assembles a process from its flags and serves it until stop (or
// the end of the test).
func served(t *testing.T, c config) (ts *httptest.Server, stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	server, closeStore, err := assemble(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(server.Handler())
	stop = sync.OnceFunc(func() {
		ts.Close()
		cancel()
		closeStore()
	})
	t.Cleanup(stop)
	return ts, stop
}

// status answers one request, redirects not followed.
func status(t *testing.T, method, url string, session *http.Cookie) int {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if session != nil {
		req.AddCookie(session)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestSessionAuthIsAFactOfTheData assembles the process the way main does
// and checks who is served: session auth is on exactly when the store
// holds credentials, on both roles, whatever the flags of this start say.
// A store without them serves everyone, API and pages. -admin puts them
// there; a leader restarted over that store without -admin stays closed;
// and its follower — given the replication token and nothing else —
// refuses the anonymous read and accepts the replicated password.
func TestSessionAuthIsAFactOfTheData(t *testing.T) {
	base := config{watchdog: time.Hour, hbTimeout: time.Hour, segmentBytes: 4 << 20, compactEvery: 4096}
	wants := func(ts *httptest.Server, who string, page, abort, users int) {
		t.Helper()
		for _, req := range []struct {
			method, path string
			want         int
		}{
			{"GET", "/projects", page},
			{"POST", "/jobs/job-000000001/abort", abort},
			{"GET", "/api/v2/users", users},
			{"GET", "/api/v2/ping", http.StatusOK},
		} {
			if got := status(t, req.method, ts.URL+req.path, nil); got != req.want {
				t.Errorf("%s: %s %s -> %d, want %d", who, req.method, req.path, got, req.want)
			}
		}
	}

	open := base
	open.dataDir = t.TempDir()
	ts, _ := served(t, open)
	wants(ts, "leader over a store without credentials", http.StatusOK, http.StatusNotFound, http.StatusOK)

	first := base
	first.dataDir, first.adminName, first.adminPassword = t.TempDir(), "root", "hunter22"
	ts, stop := served(t, first)
	wants(ts, "leader started with -admin", http.StatusSeeOther, http.StatusUnauthorized, http.StatusUnauthorized)
	stop()

	restarted := base
	restarted.dataDir, restarted.replToken = first.dataDir, "ship-secret"
	leader, _ := served(t, restarted)
	wants(leader, "leader restarted without -admin over a store with credentials", http.StatusSeeOther, http.StatusUnauthorized, http.StatusUnauthorized)

	follower, _ := served(t, config{dataDir: t.TempDir(), replicateFrom: leader.URL, replToken: "ship-secret", compactEvery: 4096})
	// The credentials arrive with the rest of the store; until they have,
	// the replica holds nothing to serve and nothing to guard.
	for deadline := time.Now().Add(20 * time.Second); status(t, "GET", follower.URL+"/api/v2/users", nil) != http.StatusUnauthorized; {
		if time.Now().After(deadline) {
			t.Fatal("the follower never refused an anonymous read")
		}
		time.Sleep(20 * time.Millisecond)
	}
	wants(follower, "follower of a leader with credentials, no flag given", http.StatusSeeOther, http.StatusUnauthorized, http.StatusUnauthorized)
	req, _ := http.NewRequest("POST", follower.URL+"/login", strings.NewReader(url.Values{"user": {"root"}, "password": {"hunter22"}}.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther || len(resp.Cookies()) != 1 {
		t.Fatalf("login on the follower with the replicated password -> %d, cookies %v", resp.StatusCode, resp.Cookies())
	}
	if got := status(t, "GET", follower.URL+"/projects", resp.Cookies()[0]); got != http.StatusOK {
		t.Fatalf("page on the follower with a session -> %d, want 200", got)
	}
}
