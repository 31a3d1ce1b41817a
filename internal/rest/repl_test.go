package rest

import (
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"chronos/internal/core"
	"chronos/internal/relstore"
	"chronos/internal/relstore/repl"
	"chronos/pkg/client"
)

// durableFixture is a control server over a disk-backed store, which the
// replication endpoints need (a memory store has no WAL to ship).
func durableFixture(t testing.TB, replToken string) (*Server, *httptest.Server, *core.Service) {
	t.Helper()
	db, err := relstore.Open(t.TempDir(), &relstore.Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	svc, err := core.NewService(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(svc)
	server.ReplToken = replToken
	server.Logger = log.New(io.Discard, "", 0)
	ts := httptest.NewServer(server.Handler())
	t.Cleanup(ts.Close)
	return server, ts, svc
}

// TestShipAuth pins the ship endpoints' auth: with a replication token
// configured, requests without it are rejected, requests with it pass —
// and crucially the agent token does NOT open them (shipping exposes
// the credentials table, which agents must never read).
func TestShipAuth(t *testing.T) {
	server, ts, _ := durableFixture(t, "ship-secret")
	server.AgentToken = "agent-secret"
	for _, path := range []string{"/api/v2/repl/status", "/api/v2/repl/snapshot", "/api/v2/repl/wal/1?from=0"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("GET %s without token: %d, want 401", path, resp.StatusCode)
		}
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		req.Header.Set("X-Chronos-Agent-Token", "agent-secret")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("GET %s with only the agent token: %d, want 401 (privilege escalation)", path, resp.StatusCode)
		}
		req, _ = http.NewRequest(http.MethodGet, ts.URL+path, nil)
		req.Header.Set(repl.HeaderReplToken, "ship-secret")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusUnauthorized {
			t.Fatalf("GET %s with repl token still 401", path)
		}
	}
}

// TestFollowerServesReadPath replicates a leader through the full REST
// stack and serves the viewer endpoints from the replica: the follower's
// REST answers match the leader's, its status endpoint reports follower
// mode and progress, and write endpoints answer 503.
func TestFollowerServesReadPath(t *testing.T) {
	_, leaderTS, leaderSvc := durableFixture(t, "sesame")

	// Populate the leader through its service layer.
	u, err := leaderSvc.CreateUser("alice", core.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	p, err := leaderSvc.CreateProject("proj", "replicated", u.ID, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Follower: replicate from the leader's REST endpoint, serve the
	// read path through its own REST server.
	f, err := repl.Start(repl.Config{
		Dir:        t.TempDir(),
		Leader:     leaderTS.URL,
		ReplToken:  "sesame",
		PollWait:   250 * time.Millisecond,
		RetryEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := f.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}

	fsvc, err := core.NewService(f.DB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fserver := NewServer(fsvc)
	fserver.Repl = f
	followerTS := httptest.NewServer(fserver.Handler())
	t.Cleanup(followerTS.Close)

	lc := client.NewClient(leaderTS.URL)
	fc := client.NewClient(followerTS.URL)

	// The read path answers identically on both sides.
	lUsers, err := lc.ListUsers()
	if err != nil {
		t.Fatal(err)
	}
	fUsers, err := fc.ListUsers()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fUsers, lUsers) {
		t.Fatalf("follower users %v, leader %v", fUsers, lUsers)
	}
	fp, err := fc.ListProjects()
	if err != nil {
		t.Fatal(err)
	}
	if len(fp) != 1 || fp[0].ID != p.ID {
		t.Fatalf("follower projects: %v", fp)
	}

	// Status reports the roles.
	lst, err := lc.ServerStatus()
	if err != nil {
		t.Fatal(err)
	}
	if lst.Mode != "leader" || lst.Repl != nil {
		t.Fatalf("leader status: %+v", lst)
	}
	fst, err := fc.ServerStatus()
	if err != nil {
		t.Fatal(err)
	}
	if fst.Mode != "follower" || fst.Repl == nil || !fst.Storage.Follower {
		t.Fatalf("follower status: %+v", fst)
	}
	if fst.Repl.AppliedSeq < 1 || fst.Repl.Bootstraps != 0 {
		t.Fatalf("follower repl status: %+v", fst.Repl)
	}

	// Writes on the follower are refused with the read-only error.
	if _, err := fc.CreateUser("bob", core.RoleMember); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("follower write: %v, want a read-only refusal", err)
	}
	// An agent's claim is such a write, on either API version: 503, go to
	// the leader.
	for _, v := range APIVersions {
		resp, err := http.Post(followerTS.URL+"/api/"+v+"/jobs/claim", "application/json",
			strings.NewReader(`{"deploymentId":"deployment-000000001"}`))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(msg), "read-only") {
			t.Fatalf("%s claim on a follower: %d %s, want 503 and the read-only refusal", v, resp.StatusCode, msg)
		}
	}

	// New leader writes keep flowing to the follower's REST surface.
	if _, err := leaderSvc.CreateUser("carol", core.RoleViewer); err != nil {
		t.Fatal(err)
	}
	if err := f.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
	fUsers, err = fc.ListUsers()
	if err != nil {
		t.Fatal(err)
	}
	if len(fUsers) != 2 {
		t.Fatalf("follower sees %d users after new commit, want 2", len(fUsers))
	}
}

// TestFollowerSessionAuth: a follower of a leader with credentials asks
// for sessions with nothing switched on — logins verify against the
// credentials replicated from the leader, sessions live on the follower,
// and unauthenticated reads are refused. The leader's auth boundary
// survives onto the scaled read path because it travels with the data.
func TestFollowerSessionAuth(t *testing.T) {
	server, leaderTS, leaderSvc := durableFixture(t, "sesame")
	la := server.Auth()
	u, err := leaderSvc.CreateUser("alice", core.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	if err := la.SetPassword(u.ID, "s3cret"); err != nil {
		t.Fatal(err)
	}

	f, err := repl.Start(repl.Config{
		Dir:        t.TempDir(),
		Leader:     leaderTS.URL,
		ReplToken:  "sesame",
		PollWait:   250 * time.Millisecond,
		RetryEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := f.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}

	fsvc, err := core.NewService(f.DB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	fserver := NewServer(fsvc)
	fserver.Repl = f
	followerTS := httptest.NewServer(fserver.Handler())
	t.Cleanup(followerTS.Close)

	fc := client.NewClient(followerTS.URL)
	if _, err := fc.ListUsers(); err == nil {
		t.Fatal("unauthenticated read on auth-enabled follower succeeded")
	}
	if err := fc.Login("alice", "wrong"); err == nil {
		t.Fatal("bad password accepted on follower")
	}
	if err := fc.Login("alice", "s3cret"); err != nil {
		t.Fatalf("login with replicated credentials: %v", err)
	}
	users, err := fc.ListUsers()
	if err != nil {
		t.Fatalf("authenticated read: %v", err)
	}
	if len(users) != 1 || users[0].Name != "alice" {
		t.Fatalf("follower users: %v", users)
	}
}
