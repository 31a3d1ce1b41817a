package client

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chronos/internal/api"
	"chronos/internal/core"
	"chronos/internal/httputil"
	"chronos/internal/relstore"
)

// fakeEndpoint is a handcrafted REST endpoint: the handler decides the
// status script, the counter records how often the client really came.
type fakeEndpoint struct {
	hits atomic.Int64
	ts   *httptest.Server
}

func newFakeEndpoint(t *testing.T, h func(n int64, w http.ResponseWriter, r *http.Request)) *fakeEndpoint {
	t.Helper()
	f := &fakeEndpoint{}
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h(f.hits.Add(1), w, r)
	}))
	t.Cleanup(f.ts.Close)
	return f
}

func serveUsers(w http.ResponseWriter) {
	httputil.WriteJSON(w, http.StatusOK, []*core.User{{ID: "u1", Name: "alice"}})
}

func serve503(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	httputil.WriteError(w, http.StatusServiceUnavailable, errors.New("degraded"))
}

// TestTokenRatchet pins the client-side session rule: the remembered
// token only moves forward. Same generation — only a covering position
// replaces it; a leader restart (newer epoch) or a different store
// replaces it outright; a stray older-epoch token is ignored.
func TestTokenRatchet(t *testing.T) {
	c := NewClient("http://unused")
	tok := func(epoch, seq, off int64) api.CommitToken {
		return api.CommitToken{Generation: relstore.Generation{StoreID: "aaaa", Epoch: epoch}, Position: relstore.Position{Seq: seq, Off: off}}
	}
	set := func(tk api.CommitToken) {
		h := http.Header{}
		h.Set(api.HeaderCommitPosition, tk.String())
		c.noteToken(h)
	}

	if _, ok := c.LastCommit(); ok {
		t.Fatal("fresh client already holds a token")
	}
	set(tok(1, 3, 100))
	if got, ok := c.LastCommit(); !ok || got != tok(1, 3, 100) {
		t.Fatalf("first token not adopted: %v (%v)", got, ok)
	}
	set(tok(1, 3, 50)) // behind: keep
	if got, _ := c.LastCommit(); got != tok(1, 3, 100) {
		t.Fatalf("ratchet moved backwards to %v", got)
	}
	set(tok(1, 4, 0)) // ahead: advance
	if got, _ := c.LastCommit(); got != tok(1, 4, 0) {
		t.Fatalf("ratchet did not advance: %v", got)
	}
	set(tok(2, 1, 10)) // newer epoch: adopt even though seq regressed
	if got, _ := c.LastCommit(); got != tok(2, 1, 10) {
		t.Fatalf("newer epoch not adopted: %v", got)
	}
	set(tok(1, 9, 9)) // stray older epoch: ignore
	if got, _ := c.LastCommit(); got != tok(2, 1, 10) {
		t.Fatalf("older epoch overwrote the session: %v", got)
	}
	other := api.CommitToken{Generation: relstore.Generation{StoreID: "bbbb", Epoch: 1}, Position: relstore.Position{Seq: 1, Off: 1}}
	h := http.Header{}
	h.Set(api.HeaderCommitPosition, other.String())
	c.noteToken(h) // different store: the old session is meaningless
	if got, _ := c.LastCommit(); got != other {
		t.Fatalf("different store not adopted: %v", got)
	}
}

// TestReadRetriesOn503 pins the retry loop: a read that hits a degraded
// follower twice and then succeeds is transparent to the caller, and
// the client really did come back the scripted number of times.
func TestReadRetriesOn503(t *testing.T) {
	ep := newFakeEndpoint(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		if n <= 2 {
			serve503(w)
			return
		}
		serveUsers(w)
	})
	c := NewClient(ep.ts.URL, WithRetries(3), WithBackoff(time.Millisecond, 5*time.Millisecond))
	users, err := c.ListUsers()
	if err != nil {
		t.Fatalf("read did not survive transient 503s: %v", err)
	}
	if len(users) != 1 || users[0].Name != "alice" {
		t.Fatalf("unexpected result: %+v", users)
	}
	if n := ep.hits.Load(); n != 3 {
		t.Fatalf("server saw %d attempts, want 3", n)
	}
}

// TestReadExhaustionFallsBackToLeader pins the last resort: when every
// retry at the follower fails retryably and a leader is configured, the
// final attempt goes there.
func TestReadExhaustionFallsBackToLeader(t *testing.T) {
	follower := newFakeEndpoint(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		serve503(w)
	})
	leader := newFakeEndpoint(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		serveUsers(w)
	})
	c := NewClient(follower.ts.URL, WithLeader(leader.ts.URL),
		WithRetries(2), WithBackoff(time.Millisecond, 5*time.Millisecond))
	if _, err := c.ListUsers(); err != nil {
		t.Fatalf("read did not fall back to the leader: %v", err)
	}
	if n := follower.hits.Load(); n != 2 {
		t.Fatalf("follower saw %d attempts, want 2", n)
	}
	if n := leader.hits.Load(); n != 1 {
		t.Fatalf("leader saw %d attempts, want exactly 1", n)
	}
}

// TestStaleTokenGoesStraightToLeader pins the 412 path: a definitive
// "your token predates my history" is not retried at the follower — the
// client goes to the leader immediately.
func TestStaleTokenGoesStraightToLeader(t *testing.T) {
	follower := newFakeEndpoint(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		httputil.WriteError(w, http.StatusPreconditionFailed, errors.New("superseded epoch"))
	})
	leader := newFakeEndpoint(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		serveUsers(w)
	})
	c := NewClient(follower.ts.URL, WithLeader(leader.ts.URL),
		WithRetries(3), WithBackoff(time.Millisecond, 5*time.Millisecond))
	if _, err := c.ListUsers(); err != nil {
		t.Fatalf("stale read did not fall back to the leader: %v", err)
	}
	if n := follower.hits.Load(); n != 1 {
		t.Fatalf("follower saw %d attempts for a definitive 412, want 1", n)
	}
	if n := leader.hits.Load(); n != 1 {
		t.Fatalf("leader saw %d attempts, want 1", n)
	}
}

// TestDefinitiveErrorsAreNotRetried pins that only availability errors
// burn retries: a 404 is the answer, not a transient.
func TestDefinitiveErrorsAreNotRetried(t *testing.T) {
	ep := newFakeEndpoint(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		httputil.WriteError(w, http.StatusNotFound, errors.New("no such user"))
	})
	c := NewClient(ep.ts.URL, WithRetries(5), WithBackoff(time.Millisecond, 5*time.Millisecond))
	if _, err := c.GetUser("nope"); err == nil {
		t.Fatal("404 surfaced as success")
	}
	if n := ep.hits.Load(); n != 1 {
		t.Fatalf("server saw %d attempts for a definitive 404, want 1", n)
	}
}

// TestSessionTokenThreadsThroughReads pins the read-your-writes plumbing
// end to end at the HTTP level: a response's commit position comes back
// as the next read's read-after header, and keeps ratcheting as the
// server's position advances.
func TestSessionTokenThreadsThroughReads(t *testing.T) {
	var lastReadAfter atomic.Value
	lastReadAfter.Store("")
	ep := newFakeEndpoint(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		lastReadAfter.Store(r.Header.Get(api.HeaderReadAfter))
		w.Header().Set(api.HeaderCommitPosition, fmt.Sprintf("aaaa:1:%d:0", n))
		serveUsers(w)
	})
	c := NewClient(ep.ts.URL)
	if _, err := c.ListUsers(); err != nil {
		t.Fatal(err)
	}
	if got := lastReadAfter.Load().(string); got != "" {
		t.Fatalf("first read carried read-after %q before any token existed", got)
	}
	if _, err := c.ListUsers(); err != nil {
		t.Fatal(err)
	}
	if got := lastReadAfter.Load().(string); got != "aaaa:1:1:0" {
		t.Fatalf("second read carried read-after %q, want the first response's position", got)
	}
	if _, err := c.ListUsers(); err != nil {
		t.Fatal(err)
	}
	if got := lastReadAfter.Load().(string); got != "aaaa:1:2:0" {
		t.Fatalf("third read carried read-after %q, want the ratcheted position", got)
	}
}

// TestOversizedResponseIsRefusedOnce: a body over httputil.MaxBodyBytes
// is not a damaged transfer. The read fails at once, naming the limit,
// rather than downloading the same answer again on every retry.
func TestOversizedResponseIsRefusedOnce(t *testing.T) {
	chunk := make([]byte, 1<<20)
	ep := newFakeEndpoint(t, func(n int64, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		for left := httputil.MaxBodyBytes + 1; left > 0; left -= len(chunk) {
			if _, err := w.Write(chunk[:min(left, len(chunk))]); err != nil {
				return
			}
		}
	})
	c := NewClient(ep.ts.URL, WithRetries(3), WithBackoff(time.Millisecond, 5*time.Millisecond))
	_, err := c.ListUsers()
	if err == nil || errors.Is(err, ErrUnavailable) {
		t.Fatalf("oversized response: err = %v, want a non-retryable error", err)
	}
	if want := fmt.Sprint(httputil.MaxBodyBytes); !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the %s-byte limit", err, want)
	}
	if n := ep.hits.Load(); n != 1 {
		t.Fatalf("server saw %d attempts, want 1", n)
	}
}
