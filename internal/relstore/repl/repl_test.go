package repl

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos/internal/relstore"
	"chronos/internal/relstore/isocheck"
)

// ---- harness ----

// testLeader is a live leader store served over HTTP. The handler
// dereferences the db through the box so tests can restart the leader
// process in place.
type testLeader struct {
	t     testing.TB
	dir   string
	srv   *httptest.Server
	tweak func(*Handler) // optional per-request handler config
	mu    sync.Mutex
	db    *relstore.DB
}

// newLeaderServer serves the ship protocol for l the way internal/rest
// mounts it, optionally behind a middleware (corruption proxies).
func newLeaderServer(l *testLeader, middleware ...func(http.Handler) http.Handler) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v2/repl/status", func(w http.ResponseWriter, r *http.Request) {
		NewHandler(l.DB()).Status(w, r)
	})
	mux.HandleFunc("GET /api/v2/repl/snapshot", func(w http.ResponseWriter, r *http.Request) {
		NewHandler(l.DB()).Snapshot(w, r)
	})
	mux.HandleFunc("GET /api/v2/repl/wal/{seq}", func(w http.ResponseWriter, r *http.Request) {
		h := NewHandler(l.DB())
		h.MaxWait = 2 * time.Second
		if l.tweak != nil {
			l.tweak(h)
		}
		h.WAL(w, r)
	})
	var root http.Handler = mux
	for _, m := range middleware {
		root = m(root)
	}
	return httptest.NewServer(root)
}

// startLeader opens a leader store and serves the ship protocol over
// HTTP.
func startLeader(t testing.TB, opts *relstore.Options, middleware func(http.Handler) http.Handler) *testLeader {
	t.Helper()
	dir := t.TempDir()
	db, err := relstore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	l := &testLeader{t: t, dir: dir, db: db}
	if middleware != nil {
		l.srv = newLeaderServer(l, middleware)
	} else {
		l.srv = newLeaderServer(l)
	}
	t.Cleanup(func() {
		l.srv.Close()
		l.DB().Close()
	})
	return l
}

func (l *testLeader) DB() *relstore.DB {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.db
}

// restart closes and reopens the leader store in place, simulating a
// leader process restart under the same URL.
func (l *testLeader) restart(opts *relstore.Options) {
	l.t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.db.Close(); err != nil {
		l.t.Fatal(err)
	}
	db, err := relstore.Open(l.dir, opts)
	if err != nil {
		l.t.Fatal(err)
	}
	l.db = db
}

func kvSchema() relstore.Schema {
	return relstore.Schema{Name: "kv", Key: "id", Columns: []relstore.Column{
		{Name: "id", Type: relstore.TString},
		{Name: "n", Type: relstore.TInt},
	}}
}

// put commits one row.
func put(t testing.TB, db *relstore.DB, table, id string, n int64) {
	t.Helper()
	if err := db.Update(func(tx *relstore.Tx) error {
		return tx.Put(table, relstore.Row{"id": id, "n": n})
	}); err != nil {
		t.Fatal(err)
	}
}

// dump captures every row of every table through the public read API.
func dump(t testing.TB, db *relstore.DB) map[string][]relstore.Row {
	t.Helper()
	out := make(map[string][]relstore.Row)
	for _, name := range db.Tables() {
		err := db.View(func(tx *relstore.Tx) error {
			rows, err := tx.Select(name, nil)
			out[name] = rows
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// startFollower launches a follower replicating from the leader into a
// fresh (or given) directory.
func startFollower(t *testing.T, l *testLeader, dir string) *Follower {
	t.Helper()
	if dir == "" {
		dir = t.TempDir()
	}
	f, err := Start(Config{
		Dir:        dir,
		Leader:     l.srv.URL,
		PollWait:   250 * time.Millisecond,
		RetryEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func waitConverged(t *testing.T, f *Follower) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.WaitCaughtUp(ctx); err != nil {
		t.Fatalf("follower never caught up: %v (last: %+v)", err, f.Status())
	}
}

func assertConverged(t *testing.T, l *testLeader, f *Follower) {
	t.Helper()
	waitConverged(t, f)
	got, want := dump(t, f.DB()), dump(t, l.DB())
	if !reflect.DeepEqual(got, want) {
		pos, _, perr := l.DB().ShipPosition()
		t.Fatalf("follower state diverged:\nfollower: %+v\nleader: %+v (%v)\n got: %v\nwant: %v",
			f.Status(), pos, perr, got, want)
	}
}

// ---- tests ----

// TestConvergenceUnderLoad is the acceptance harness: a follower started
// from an empty directory against a live leader converges to the
// leader's exact table contents while the leader commits and compacts
// concurrently. Mid-flight, a checker continuously asserts the prefix
// property — every acknowledged commit becomes visible in commit order,
// with no ghosts: for each writer, the set of its rows on the follower
// is always a contiguous prefix of what it wrote.
func TestConvergenceUnderLoad(t *testing.T) {
	// Small segments and frequent compaction: the run crosses many
	// rotations and several snapshot+delete cycles.
	l := startLeader(t, &relstore.Options{SegmentBytes: 8 << 10, CompactEvery: 128}, nil)
	if err := l.DB().CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}

	f := startFollower(t, l, "")

	const writers, commits = 4, 120
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				put(t, l.DB(), "kv", fmt.Sprintf("w%d-%06d", w, i), int64(i))
			}
		}(w)
	}

	// The mid-flight consistency checker: commit order, no ghosts.
	stop := make(chan struct{})
	checkerDone := make(chan error, 1)
	go func() {
		defer close(checkerDone)
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
			maxSeen := make(map[string]int, writers)
			count := make(map[string]int, writers)
			err := f.DB().View(func(tx *relstore.Tx) error {
				return tx.SelectFunc("kv", nil, func(row relstore.Row) bool {
					id := row["id"].(string)
					w, i := id[:2], 0
					fmt.Sscanf(id[3:], "%06d", &i)
					count[w]++
					if i > maxSeen[w] {
						maxSeen[w] = i
					}
					return true
				})
			})
			if err != nil {
				// The kv table may not have replicated yet.
				continue
			}
			for w, c := range count {
				if c != maxSeen[w]+1 {
					checkerDone <- fmt.Errorf("writer %s: %d rows visible but max id %d — a commit was skipped or invented", w, c, maxSeen[w])
					return
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	if err, ok := <-checkerDone; ok && err != nil {
		t.Fatal(err)
	}
	assertConverged(t, l, f)

	// Writes on the follower fail with the typed read-only error.
	err := f.DB().Update(func(tx *relstore.Tx) error { return nil })
	if !errors.Is(err, relstore.ErrReadOnly) {
		t.Fatalf("follower write: %v, want ErrReadOnly", err)
	}

	// One more compaction plus writes after convergence: the follower
	// keeps tailing.
	if err := l.DB().Compact(); err != nil {
		t.Fatal(err)
	}
	put(t, l.DB(), "kv", "final", 1)
	assertConverged(t, l, f)
}

// TestFollowerIsolation points the mechanical isolation checker's
// readers at a live follower while its writers drive the leader through
// segment rotations and compaction cycles: every replicated transaction
// must become visible atomically across its whole table set (snapshot
// readers over the writer's tables), per-table visibility must never
// move backwards or run ahead of started commits, and no rolled-back
// write may ever appear — the same contract the leader store passes in
// internal/relstore/isocheck, with only the replication-lag relaxation
// of the lower visibility bound. After convergence the follower must
// hold the leader's exact final state, lost-update counters included.
func TestFollowerIsolation(t *testing.T) {
	l := startLeader(t, &relstore.Options{SegmentBytes: 8 << 10, CompactEvery: 128}, nil)
	f := startFollower(t, l, "")

	opt := isocheck.Options{
		Tables: 4, Writers: 4, Readers: 3, Ops: 120, Span: 2,
		ReadDB: f.DB(), Follower: true,
	}
	if err := isocheck.Run(l.DB(), opt); err != nil {
		t.Fatal(err)
	}
	assertConverged(t, l, f)
	if err := isocheck.FinalCheck(l.DB(), opt); err != nil {
		t.Fatalf("leader final state: %v", err)
	}
	if err := isocheck.FinalCheck(f.DB(), opt); err != nil {
		t.Fatalf("follower final state: %v", err)
	}
}

// TestFollowerRestartResumes stops a follower mid-replication and
// restarts it on the same directory: it must resume from its durable
// position and reconverge without a re-bootstrap.
func TestFollowerRestartResumes(t *testing.T) {
	l := startLeader(t, &relstore.Options{SegmentBytes: 4 << 10, CompactEvery: -1}, nil)
	if err := l.DB().CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		put(t, l.DB(), "kv", fmt.Sprintf("a-%06d", i), int64(i))
	}

	dir := t.TempDir()
	f := startFollower(t, l, dir)
	waitConverged(t, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 100; i++ {
		put(t, l.DB(), "kv", fmt.Sprintf("b-%06d", i), int64(i))
	}

	f2 := startFollower(t, l, dir)
	assertConverged(t, l, f2)
	if n := f2.Status().Bootstraps; n != 0 {
		t.Fatalf("restart forced %d bootstrap(s); resume should need none", n)
	}
}

// TestLeaderCompactionForcesRebootstrap lets the leader compact away
// segments a stopped follower still needs: on restart the follower must
// detect it, re-bootstrap from the snapshot and reconverge.
func TestLeaderCompactionForcesRebootstrap(t *testing.T) {
	l := startLeader(t, &relstore.Options{SegmentBytes: 2 << 10, CompactEvery: -1}, nil)
	if err := l.DB().CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		put(t, l.DB(), "kv", fmt.Sprintf("a-%06d", i), int64(i))
	}
	dir := t.TempDir()
	f := startFollower(t, l, dir)
	waitConverged(t, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Enough new segments to rotate past the follower, then compact:
	// the follower's next segment is deleted out from under it.
	for i := 0; i < 200; i++ {
		put(t, l.DB(), "kv", fmt.Sprintf("b-%06d", i), int64(i))
	}
	if err := l.DB().Compact(); err != nil {
		t.Fatal(err)
	}
	pos, _, err := l.DB().ShipPosition()
	if err != nil {
		t.Fatal(err)
	}
	if pos.SnapshotSeq < 2 {
		t.Fatalf("compaction covered nothing (snapSeq %d); test setup broken", pos.SnapshotSeq)
	}

	f2 := startFollower(t, l, dir)
	assertConverged(t, l, f2)
	if n := f2.Status().Bootstraps; n < 1 {
		t.Fatal("follower converged without the forced snapshot re-bootstrap")
	}
}

// TestLeaderRestartFollowerResumes restarts the leader process (same
// directory, same URL) while a follower tails it: recovery seals the
// old active segment and starts a fresh one above it, and the follower
// must follow across the boundary.
func TestLeaderRestartFollowerResumes(t *testing.T) {
	opts := &relstore.Options{SegmentBytes: 1 << 20, CompactEvery: -1}
	l := startLeader(t, opts, nil)
	if err := l.DB().CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		put(t, l.DB(), "kv", fmt.Sprintf("a-%06d", i), int64(i))
	}
	f := startFollower(t, l, "")
	waitConverged(t, f)

	l.restart(opts)
	for i := 0; i < 50; i++ {
		put(t, l.DB(), "kv", fmt.Sprintf("b-%06d", i), int64(i))
	}
	assertConverged(t, l, f)
}

// TestTinyChunksStillConverge caps WAL responses at an odd 97 bytes, so
// nearly every chunk ends mid-frame (a torn retry) and sealed segments
// take many partial responses — the follower must still advance only at
// true segment ends and converge exactly.
func TestTinyChunksStillConverge(t *testing.T) {
	l := startLeader(t, &relstore.Options{SegmentBytes: 2 << 10, CompactEvery: -1}, nil)
	l.tweak = func(h *Handler) { h.MaxChunkBytes = 97 }
	if err := l.DB().CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		put(t, l.DB(), "kv", fmt.Sprintf("t-%06d", i), int64(i))
	}
	f := startFollower(t, l, "")
	assertConverged(t, l, f)
	if n := f.Status().Bootstraps; n != 0 {
		t.Fatalf("chunked shipping forced %d bootstrap(s)", n)
	}
}

// TestCorruptingTransportNeverDiverges ships WAL chunks through a proxy
// that flips bits in — or truncates — the first few dozen responses.
// The CRC framing must reduce every corruption to a retry from the last
// durable offset: replication slows down but the replica never applies
// a damaged frame and still converges byte-exactly.
func TestCorruptingTransportNeverDiverges(t *testing.T) {
	var served atomic.Int64
	rng := rand.New(rand.NewSource(7))
	var rngMu sync.Mutex
	corrupt := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/api/v2/repl/status" || served.Add(1) > 40 {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			rngMu.Lock()
			mode := rng.Intn(3)
			cut := 0
			if len(body) > 0 {
				cut = rng.Intn(len(body))
			}
			rngMu.Unlock()
			if rec.Code == http.StatusOK && len(body) > 0 {
				switch mode {
				case 0: // bit flip mid-stream
					body = append([]byte{}, body...)
					body[cut] ^= 0x20
				case 1: // truncate (Content-Length rewritten to match)
					body = body[:cut]
				}
			}
			h := w.Header()
			for k, vs := range rec.Header() {
				if k == "Content-Length" {
					continue
				}
				h[k] = vs
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}

	l := startLeader(t, &relstore.Options{SegmentBytes: 2 << 10, CompactEvery: -1}, corrupt)
	if err := l.DB().CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	f := startFollower(t, l, "")
	for i := 0; i < 200; i++ {
		put(t, l.DB(), "kv", fmt.Sprintf("c-%06d", i), int64(i))
	}
	assertConverged(t, l, f)
}

// TestFollowerRestartAtSegmentBoundaryResumes stops a follower that has
// applied exactly to the start of the leader's active segment — where a
// leader compaction leaves it, with the snapshot covering every segment
// before — and restarts it: it must resume at (seq, 0), not one segment
// back, below the snapshot, where only a re-bootstrap could serve it.
//
// When the leader restarts meanwhile, the follower must prove its history
// before adopting the new generation, and at (seq, 0) the only bytes to
// compare are segment seq-1's, which the leader's snapshot covers and it
// no longer serves: a leader that diverged and compacted to the same
// boundary would look the same, so the follower re-bootstraps, once.
func TestFollowerRestartAtSegmentBoundaryResumes(t *testing.T) {
	for _, tc := range []struct {
		name           string
		restartLeader  bool
		wantBootstraps int64
	}{
		{"leader-running", false, 0},
		{"leader-restarted", true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := &relstore.Options{SegmentBytes: 1 << 20, CompactEvery: -1}
			l := startLeader(t, opts, nil)
			if err := l.DB().CreateTable(kvSchema()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				put(t, l.DB(), "kv", fmt.Sprintf("a-%06d", i), int64(i))
			}
			dir := t.TempDir()
			f := startFollower(t, l, dir)
			waitConverged(t, f)
			if err := l.DB().Compact(); err != nil {
				t.Fatal(err)
			}
			pos, _, err := l.DB().ShipPosition()
			if err != nil {
				t.Fatal(err)
			}
			if pos.Durable != 0 || pos.SnapshotSeq != pos.WALSeq-1 {
				t.Fatalf("leader after compaction at %+v, want the start of the segment after the snapshot", pos)
			}
			waitConverged(t, f)
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if tc.restartLeader {
				l.restart(opts)
			}
			for i := 0; i < 50; i++ {
				put(t, l.DB(), "kv", fmt.Sprintf("b-%06d", i), int64(i))
			}

			f2 := startFollower(t, l, dir)
			assertConverged(t, l, f2)
			if n := f2.Status().Bootstraps; n != tc.wantBootstraps {
				t.Fatalf("restart at a segment boundary made %d bootstrap(s), want %d", n, tc.wantBootstraps)
			}
		})
	}
}
