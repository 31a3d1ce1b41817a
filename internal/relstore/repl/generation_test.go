package repl

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chronos/internal/relstore"
)

// TestLeaderRestartAdoptsWithoutBootstrap pins the cheap path of the
// generation protocol: a clean leader restart bumps the epoch, and a
// caught-up follower proves its prefix matches and adopts the new epoch
// in place — no snapshot re-bootstrap, no window of refused reads.
func TestLeaderRestartAdoptsWithoutBootstrap(t *testing.T) {
	opts := &relstore.Options{SegmentBytes: 8 << 10, CompactEvery: -1}
	l := startLeader(t, opts, nil)
	if err := l.DB().CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		put(t, l.DB(), "kv", "pre", int64(i))
	}
	f := startFollower(t, l, "")
	assertConverged(t, l, f)
	if gen, _, ok := f.db.ReadPosition(); !ok || gen.Epoch != 1 {
		t.Fatalf("follower epoch before restart: %d (known %v), want 1", gen.Epoch, ok)
	}

	l.restart(opts)
	for i := 0; i < 20; i++ {
		put(t, l.DB(), "kv", "post", int64(i))
	}
	assertConverged(t, l, f)

	if n := f.Status().Bootstraps; n != 0 {
		t.Fatalf("clean leader restart forced %d bootstrap(s); prefix verification should adopt in place", n)
	}
	if gen, _, ok := f.db.ReadPosition(); !ok || gen.Epoch != 2 {
		t.Fatalf("follower epoch after restart: %d (known %v), want 2", gen.Epoch, ok)
	}
	if st := f.Status(); st.Epoch != 2 || st.StoreID == "" {
		t.Fatalf("follower status does not surface the adopted generation: %+v", st)
	}
}

// TestDivergedLeaderRestartForcesBootstrap pins the fail-closed path: a
// leader that restarts having LOST part of its tail (and then writes
// different history over the same offsets) must not be silently adopted
// — the follower's byte comparison fails and it re-bootstraps, ending
// byte-identical with the new history instead of a chimera of both.
func TestDivergedLeaderRestartForcesBootstrap(t *testing.T) {
	opts := &relstore.Options{SegmentBytes: 1 << 20, CompactEvery: -1}
	l := startLeader(t, opts, nil)
	if err := l.DB().CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		put(t, l.DB(), "kv", "old", int64(i))
	}
	dir := t.TempDir()
	f := startFollower(t, l, dir)
	assertConverged(t, l, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart the leader with a torn tail: close, chop bytes the
	// follower has already applied off the active segment, reopen (the
	// truncated tail reads as a crash), then write different history
	// over the same offsets.
	l.mu.Lock()
	pos, _, err := l.db.ShipPosition()
	if err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	seg := l.db.SegmentPath(pos.WALSeq)
	if err := l.db.Close(); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	if err := os.Truncate(seg, pos.Durable/2); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	db, err := relstore.Open(l.dir, opts)
	if err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	l.db = db
	l.mu.Unlock()
	for i := 0; i < 50; i++ {
		put(t, l.DB(), "kv", "new-history", int64(i)*7)
	}

	// The follower restarts with its old (now divergent) mirror.
	f2, err := Start(Config{
		Dir:        dir,
		Leader:     l.srv.URL,
		PollWait:   250 * time.Millisecond,
		RetryEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f2.Close() })
	assertConverged(t, l, f2)
	if n := f2.Status().Bootstraps; n < 1 {
		t.Fatalf("diverged leader history adopted without a re-bootstrap (bootstraps=%d)", n)
	}
}

// TestRetryBackoffThrottlesDeadLeader pins the reconnect policy: against
// a leader that fails every request, the retry delay backs off
// exponentially (with jitter) instead of hammering at the base rate.
// With base 10ms capped at 80ms, a constant-rate follower would issue
// ~40 requests in 400ms; the backed-off one stays far below that.
func TestRetryBackoffThrottlesDeadLeader(t *testing.T) {
	var hits atomic.Int64
	l := startLeader(t, nil, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.Contains(r.URL.Path, "/repl/") {
				hits.Add(1)
				http.Error(w, "boom", http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	f, err := Start(Config{
		Dir:        t.TempDir(),
		Leader:     l.srv.URL,
		PollWait:   100 * time.Millisecond,
		RetryEvery: 10 * time.Millisecond,
		RetryMax:   80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	time.Sleep(400 * time.Millisecond)
	n := hits.Load()
	if n < 3 {
		t.Fatalf("follower gave up retrying: only %d attempts in 400ms", n)
	}
	if n > 25 {
		t.Fatalf("follower hammered a dead leader: %d attempts in 400ms, backoff not applied", n)
	}
	if st := f.Status(); st.LastError == "" {
		t.Fatalf("no error surfaced while the leader is failing: %+v", st)
	}
}

// stripGeneration serves the ship protocol with the generation taken
// out of every response: X-Chronos-Gen from the WAL and snapshot
// responses and, when statusBody is set, storeId and epoch from the
// /repl/status body.
func stripGeneration(statusBody bool) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if statusBody && strings.HasSuffix(r.URL.Path, "/repl/status") && rec.Code == http.StatusOK {
				var env struct {
					Data map[string]any `json:"data"`
				}
				if err := json.Unmarshal(body, &env); err != nil {
					http.Error(w, err.Error(), http.StatusInternalServerError)
					return
				}
				delete(env.Data, "storeId")
				delete(env.Data, "epoch")
				body, _ = json.Marshal(env)
				rec.Header().Del("Content-Length")
			}
			for k, v := range rec.Header() {
				if k != HeaderGen {
					w.Header()[k] = v
				}
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

// TestShipResponseWithoutGenerationIsRefused pins the follower's
// refusal of a ship response that names no store generation: its
// positions belong to no history the follower could verify. Whether
// the generation is missing from the status body, from a WAL chunk or
// from the snapshot, the follower applies not one byte, backs off, and
// names the missing generation in its status.
func TestShipResponseWithoutGenerationIsRefused(t *testing.T) {
	for _, tc := range []struct {
		name       string
		statusBody bool // strip the status body's generation too
		compact    bool // the leader has a snapshot: the follower must bootstrap
	}{
		{"status", true, false},
		{"wal", false, false},
		{"snapshot", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := startLeader(t, &relstore.Options{CompactEvery: -1}, stripGeneration(tc.statusBody))
			if err := l.DB().CreateTable(kvSchema()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				put(t, l.DB(), "kv", "row", int64(i))
			}
			if tc.compact {
				if err := l.DB().Compact(); err != nil {
					t.Fatal(err)
				}
			}
			f := startFollower(t, l, "")

			deadline := time.Now().Add(10 * time.Second)
			for !strings.Contains(f.Status().LastError, "names no store generation") {
				if time.Now().After(deadline) {
					t.Fatalf("follower never refused the generation-less leader: %+v", f.Status())
				}
				time.Sleep(5 * time.Millisecond)
			}
			time.Sleep(100 * time.Millisecond) // several more backed-off rounds
			if seq, off := f.DB().FollowerPosition(); seq != 1 || off != 0 {
				t.Fatalf("follower mirrored bytes of a generation-less leader: at segment %d offset %d", seq, off)
			}
			if st := f.Status(); st.AppliedSeq != 1 || st.AppliedBytes != 0 || st.Bootstraps != 0 {
				t.Fatalf("follower applied state from a generation-less leader: %+v", st)
			}
			if tables := f.DB().Tables(); len(tables) != 0 {
				t.Fatalf("follower holds tables %v from a generation-less leader", tables)
			}
		})
	}
}
