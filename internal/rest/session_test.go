package rest

import (
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chronos/internal/api"
	"chronos/internal/core"
	"chronos/internal/httputil"
	"chronos/internal/relstore"
	"chronos/internal/relstore/repl"
)

// sessionFixture stands up a leader and a caught-up follower, both
// serving the full REST stack, and hands back the pieces the gate tests
// poke at.
type sessionFixture struct {
	leaderTS   *httptest.Server
	leaderSvc  *core.Service
	follower   *repl.Follower
	fserver    *Server
	followerTS *httptest.Server
}

func newSessionFixture(t testing.TB) *sessionFixture {
	t.Helper()
	_, leaderTS, leaderSvc := durableFixture(t, "")
	if _, err := leaderSvc.CreateUser("alice", core.RoleAdmin); err != nil {
		t.Fatal(err)
	}
	f, err := repl.Start(repl.Config{
		Dir:        t.TempDir(),
		Leader:     leaderTS.URL,
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
	fserver.Logger = log.New(io.Discard, "", 0)
	followerTS := httptest.NewServer(fserver.Handler())
	t.Cleanup(followerTS.Close)
	return &sessionFixture{leaderTS, leaderSvc, f, fserver, followerTS}
}

// get issues a GET with an optional read-after token and returns the
// response (body closed, status and headers usable).
func get(t testing.TB, base, path, readAfter string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if readAfter != "" {
		req.Header.Set(api.HeaderReadAfter, readAfter)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// followerToken reads the follower's current position as a token the
// tests can then perturb (bump the seq, swap the store id, ...).
func followerToken(t testing.TB, fx *sessionFixture) api.CommitToken {
	t.Helper()
	db := fx.follower.DB()
	id, epoch, ok := db.Generation()
	if !ok {
		t.Fatal("follower has no verified generation")
	}
	seq, off := db.FollowerAppliedPosition()
	return api.CommitToken{StoreID: id, Epoch: epoch, Seq: seq, Off: off}
}

// TestCommitPositionHeaderAdvances pins the token side of the contract:
// every leader response carries a parseable commit position, and a
// mutation moves it forward — the token a write returns covers that
// write.
func TestCommitPositionHeaderAdvances(t *testing.T) {
	_, ts, svc := durableFixture(t, "")
	before := get(t, ts.URL, "/api/v2/users", "")
	tok1, err := api.ParseCommitToken(before.Header.Get(api.HeaderCommitPosition))
	if err != nil {
		t.Fatalf("leader GET carries no parseable commit position: %v", err)
	}
	if _, err := svc.CreateUser("bob", core.RoleAdmin); err != nil {
		t.Fatal(err)
	}
	after := get(t, ts.URL, "/api/v2/users", "")
	tok2, err := api.ParseCommitToken(after.Header.Get(api.HeaderCommitPosition))
	if err != nil {
		t.Fatal(err)
	}
	if !tok2.SameGeneration(tok1) {
		t.Fatalf("generation changed without a restart: %v -> %v", tok1, tok2)
	}
	if !tok2.Covers(tok1) || tok2 == tok1 {
		t.Fatalf("commit position did not advance across a mutation: %v -> %v", tok1, tok2)
	}
}

// TestNoCommitPositionOnMemoryStore pins that a store which cannot
// honour a token never hands one out.
func TestNoCommitPositionOnMemoryStore(t *testing.T) {
	svc, err := core.NewService(relstore.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc).Handler())
	t.Cleanup(ts.Close)
	resp := get(t, ts.URL, "/api/v2/users", "")
	if h := resp.Header.Get(api.HeaderCommitPosition); h != "" {
		t.Fatalf("memory store handed out commit position %q it cannot honour", h)
	}
}

// TestLeaderIgnoresReadAfter pins that the authority is never gated: a
// leader serves any read directly, token or no token — even a garbage
// one — because every token ultimately points at it.
func TestLeaderIgnoresReadAfter(t *testing.T) {
	_, ts, _ := durableFixture(t, "")
	if resp := get(t, ts.URL, "/api/v2/users", "not-even-a-token"); resp.StatusCode != http.StatusOK {
		t.Fatalf("leader gated a read on a token: %d", resp.StatusCode)
	}
}

// TestFollowerReadAfterVerdicts walks the follower gate through each
// verdict: satisfied tokens pass, malformed ones are 400, unreachable
// same-generation positions time out retryably (503 + Retry-After),
// newer epochs are retryable too, and old-epoch / foreign-store tokens
// are definitive 412s that send the client to the leader.
func TestFollowerReadAfterVerdicts(t *testing.T) {
	fx := newSessionFixture(t)
	fx.fserver.ReadAfterWait = 100 * time.Millisecond
	tok := followerToken(t, fx)

	if resp := get(t, fx.followerTS.URL, "/api/v2/users", tok.String()); resp.StatusCode != http.StatusOK {
		t.Fatalf("satisfied token refused: %d", resp.StatusCode)
	}
	if resp := get(t, fx.followerTS.URL, "/api/v2/users", "gibberish"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed token: %d, want 400", resp.StatusCode)
	}

	future := tok
	future.Seq += 100
	resp := get(t, fx.followerTS.URL, "/api/v2/users", future.String())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unreachable position: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("timed-out read-after 503 carries no Retry-After")
	}

	newer := tok
	newer.Epoch++
	resp = get(t, fx.followerTS.URL, "/api/v2/users", newer.String())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("newer-epoch token: %d, want 503 (follower re-verifies shortly)", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("newer-epoch 503 carries no Retry-After")
	}

	foreign := tok
	foreign.StoreID = "feedfacecafe"
	if resp := get(t, fx.followerTS.URL, "/api/v2/users", foreign.String()); resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("foreign-store token: %d, want 412", resp.StatusCode)
	}

	// A page is a data read behind the same gate: it hears the token too.
	if resp := get(t, fx.followerTS.URL, "/projects", tok.String()); resp.StatusCode != http.StatusOK {
		t.Fatalf("page with a satisfied token: %d", resp.StatusCode)
	}
	if resp := get(t, fx.followerTS.URL, "/projects", foreign.String()); resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("page with a foreign-store token: %d, want 412", resp.StatusCode)
	}
}

// TestOldEpochTokenIs412 pins the superseded-history verdict: a token
// minted before a leader restart, presented to a follower that has
// already verified against the newer epoch, is definitively refused —
// the follower cannot prove the old position survived the restart, only
// the leader can answer for it.
func TestOldEpochTokenIs412(t *testing.T) {
	// Cycle the leader store once before serving so it is at epoch 2,
	// leaving epoch 1 as a legitimately old epoch a stale client could
	// still hold a token from.
	dir := t.TempDir()
	db, err := relstore.Open(dir, &relstore.Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = relstore.Open(dir, &relstore.Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	svc, err := core.NewService(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	leaderTS := httptest.NewServer(NewServer(svc).Handler())
	t.Cleanup(leaderTS.Close)

	f, err := repl.Start(repl.Config{
		Dir:        t.TempDir(),
		Leader:     leaderTS.URL,
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
	fserver.Logger = log.New(io.Discard, "", 0)
	followerTS := httptest.NewServer(fserver.Handler())
	t.Cleanup(followerTS.Close)

	id, epoch, ok := f.DB().Generation()
	if !ok || epoch != 2 {
		t.Fatalf("follower verified at epoch %d (known %v), want 2", epoch, ok)
	}
	old := api.CommitToken{StoreID: id, Epoch: 1, Seq: 1, Off: 0}
	if resp := get(t, followerTS.URL, "/api/v2/users", old.String()); resp.StatusCode != http.StatusPreconditionFailed {
		t.Fatalf("old-epoch token: %d, want 412", resp.StatusCode)
	}
}

// TestStalenessBudgetDegrades pins bounded staleness: once the leader
// stops answering, a follower with a budget refuses data reads (503 +
// Retry-After) while its status endpoint — deliberately ungated, it is
// how operators diagnose the degradation — reports Degraded with the
// budget attached.
func TestStalenessBudgetDegrades(t *testing.T) {
	fx := newSessionFixture(t)
	fx.fserver.MaxStaleness = 50 * time.Millisecond

	if resp := get(t, fx.followerTS.URL, "/api/v2/users", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh follower within budget refused a read: %d", resp.StatusCode)
	}

	fx.leaderTS.Close() // silence the leader; staleness now only grows
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := get(t, fx.followerTS.URL, "/api/v2/users", "")
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("degraded 503 carries no Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never degraded past its 50ms budget (last status %d)", resp.StatusCode)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The web UI's pages are data reads like the API's: beyond the budget
	// they degrade with it, except the status page, which like the status
	// call must keep answering precisely now.
	if resp := get(t, fx.followerTS.URL, "/projects", ""); resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("page beyond the staleness budget: %d (Retry-After %q), want 503 with one", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if resp := get(t, fx.followerTS.URL, "/status", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("status page on a degraded follower: %d, want 200", resp.StatusCode)
	}

	resp, err := http.Get(fx.followerTS.URL + "/api/v2/status")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var rs api.ServerStatusResponse
	if err := httputil.ReadEnvelope(body, &rs); err != nil {
		t.Fatal(err)
	}
	if rs.Repl == nil {
		t.Fatal("follower status has no repl section")
	}
	if !rs.Repl.Degraded {
		t.Fatalf("status does not report degradation: %+v", rs.Repl)
	}
	if rs.Repl.MaxStalenessMs != 50 {
		t.Fatalf("status budget = %dms, want 50", rs.Repl.MaxStalenessMs)
	}
}

// TestFollowerWriteCarriesRetryAfter pins that the read-only 503 on a
// follower write is marked retryable like every other 503 — a client
// that fails over to the leader and retries will succeed.
func TestFollowerWriteCarriesRetryAfter(t *testing.T) {
	fx := newSessionFixture(t)
	resp, err := http.Post(fx.followerTS.URL+"/api/v2/users", "application/json",
		strings.NewReader(`{"name":"carol","role":"admin"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("follower write: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("read-only 503 carries no Retry-After")
	}
}
