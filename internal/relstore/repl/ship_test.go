package repl

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos/internal/metrics"
	"chronos/internal/relstore"
)

// Shipping has no timer: these tests pin the two properties that make
// that safe. Commits that become durable while no tail request is in the
// handler go out as one chunk (the follower's own cycle batches), and a
// burst of concurrent writers needs fewer chunks than commits.

// isTailRequest picks the WAL tail requests out of a leader's traffic.
func isTailRequest(r *http.Request) bool { return strings.Contains(r.URL.Path, "/repl/wal/") }

// tailGate is a leader middleware that can hold WAL tail requests at the
// door, before they reach the ship handler: the deterministic stand-in
// for a follower busy fsyncing and applying its previous chunk.
type tailGate struct {
	hold atomic.Pointer[chan struct{}] // non-nil: tail requests wait for it to close
	held chan struct{}                 // one send per request held
}

func newTailGate() *tailGate { return &tailGate{held: make(chan struct{}, 1)} }

func (g *tailGate) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ch := g.hold.Load(); ch != nil && isTailRequest(r) {
			g.held <- struct{}{}
			select {
			case <-*ch:
			case <-r.Context().Done():
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// close makes every tail request from now on wait at the door.
func (g *tailGate) close() {
	ch := make(chan struct{})
	g.hold.Store(&ch)
}

// awaitHeld returns once a tail request is waiting at the door — from
// then on none is inside the ship handler (the follower sends one at a
// time).
func (g *tailGate) awaitHeld(t *testing.T) {
	t.Helper()
	select {
	case <-g.held:
	case <-time.After(10 * time.Second):
		t.Fatal("no tail request arrived at the gate")
	}
}

// open lets the held request, and all later ones, through.
func (g *tailGate) open() { close(*g.hold.Swap(nil)) }

// TestIdleCommitsShipAsOneChunk: N commits that land while no tail
// request is in flight ship as one chunk — from an empty replica and in
// steady state — and the follower's two shipping counters report exactly
// that, in the registry's exposition.
func TestIdleCommitsShipAsOneChunk(t *testing.T) {
	gate := newTailGate()
	gate.close()
	l := startLeader(t, &relstore.Options{SegmentBytes: 1 << 20, CompactEvery: -1}, gate.middleware)
	if err := l.DB().CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	f, err := Start(Config{
		Dir:        t.TempDir(),
		Leader:     l.srv.URL,
		PollWait:   50 * time.Millisecond,
		RetryEvery: 20 * time.Millisecond,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })

	const n = 25
	// Round 1: the replica's very first tail request waits at the door
	// while CreateTable's frame and n commits are already durable.
	// Round 2: steady state. Closing the gate lets the in-flight long
	// poll run out (PollWait) with nothing to ship; the next request is
	// held while n more commits land.
	for round, want := range []struct{ chunks, commits int64 }{{1, 1 + n}, {2, 1 + 2*n}} {
		if round > 0 {
			gate.close()
		}
		gate.awaitHeld(t)
		for i := 0; i < n; i++ {
			put(t, l.DB(), "kv", fmt.Sprintf("r%d-%03d", round, i), int64(i))
		}
		gate.open()
		assertConverged(t, l, f)
		// The counters tick after FollowerApply returns, the applied
		// position assertConverged watches inside it: give them a moment.
		for deadline := time.Now().Add(5 * time.Second); f.commits.Load() < want.commits && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if chunks, commits := f.chunks.Load(), f.commits.Load(); chunks != want.chunks || commits != want.commits {
			t.Fatalf("round %d: %d commits in %d chunk(s), want %d in %d", round, commits, chunks, want.commits, want.chunks)
		}
	}
	if b := f.Status().Bootstraps; b != 0 {
		t.Fatalf("%d bootstrap(s); the counts above assume plain tailing", b)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if strings.Contains(line, "chronos_repl_chunks_total") || strings.Contains(line, "chronos_repl_commits_applied_total") {
			got.WriteString(line)
		}
	}
	const want = `# HELP chronos_repl_chunks_total Shipped WAL chunks applied (one tail response, one local fsync each).
# TYPE chronos_repl_chunks_total counter
chronos_repl_chunks_total 2
# HELP chronos_repl_commits_applied_total Leader commits applied from shipped WAL chunks.
# TYPE chronos_repl_commits_applied_total counter
chronos_repl_commits_applied_total 51
`
	if got.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got.String(), want)
	}
}

// TestBurstShipsFewerChunksThanCommits: four writers flat out against a
// live follower. Nothing delays a woken tail request, yet the burst
// needs fewer chunks than commits — group commit and the follower's
// request cycle batch it — every commit is counted exactly once, and
// the replica ends in the leader's exact state.
func TestBurstShipsFewerChunksThanCommits(t *testing.T) {
	l := startLeader(t, &relstore.Options{SegmentBytes: 1 << 20, CompactEvery: -1}, nil)
	if err := l.DB().CreateTable(kvSchema()); err != nil {
		t.Fatal(err)
	}
	f := startFollower(t, l, "")
	waitConverged(t, f)

	const writers, each = 4, 150
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := l.DB().Update(func(tx *relstore.Tx) error {
					return tx.Put("kv", relstore.Row{"id": fmt.Sprintf("w%d-%06d", w, i), "n": int64(i)})
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	assertConverged(t, l, f)

	chunks, commits := f.chunks.Load(), f.commits.Load()
	t.Logf("%d commits shipped in %d chunks (%.1f commits/chunk)", commits, chunks, float64(commits)/float64(chunks))
	if want := int64(1 + writers*each); commits != want {
		t.Fatalf("follower counted %d commits applied, leader made %d", commits, want)
	}
	if chunks >= commits {
		t.Fatalf("%d chunks for %d commits: shipping did not batch the burst", chunks, commits)
	}
	if b := f.Status().Bootstraps; b != 0 {
		t.Fatalf("%d bootstrap(s) during the burst", b)
	}
}
