package faultnet_test

// The session-guarantee harness: the whole stack — leader REST server,
// WAL-shipping follower, follower REST server, SDK clients — wired
// through faultnet proxies, with a chaos script throwing latency,
// partitions, resets, torn streams, a follower restart, a leader
// restart (epoch bump) and a forced snapshot re-bootstrap at it, while
// actor goroutines continuously write through the leader and read
// through the follower. The invariants checked on every successful
// read, for every actor:
//
//   - read-your-writes: every write the actor got an ACK for is visible;
//   - monotonic reads: nothing the actor has ever seen disappears
//     (the data set is insert-only, so seen-set regression = violation).
//
// Errors are allowed — a partitioned system may refuse to answer — but
// a successful answer must never violate the session guarantees.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos/internal/core"
	"chronos/internal/faultnet"
	"chronos/internal/relstore"
	"chronos/internal/relstore/repl"
	"chronos/internal/rest"
	"chronos/pkg/client"
)

// quietLog discards server chatter so the chaos run's own output stays
// readable; flip to log.Default() when debugging.
var quietLog = log.New(io.Discard, "", 0)

// swapServer is an HTTP server on a fixed port whose handler can be
// swapped at runtime — the trick that lets "the leader" or "the
// follower" restart (new store, new handler) under an unchanged
// address, the way a supervised process restarts on its port.
type swapServer struct {
	ln  net.Listener
	srv *http.Server
	h   atomic.Value // http.Handler
}

// down answers every request with a bare 503: the supervisor's "process
// is restarting" behaviour.
var down = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "restarting", http.StatusServiceUnavailable)
})

func newSwapServer(t *testing.T) *swapServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := &swapServer{ln: ln}
	ss.h.Store(http.Handler(down))
	ss.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ss.h.Load().(http.Handler).ServeHTTP(w, r)
	})}
	go ss.srv.Serve(ln)
	t.Cleanup(func() { ss.srv.Close() })
	return ss
}

func (ss *swapServer) Addr() string        { return ss.ln.Addr().String() }
func (ss *swapServer) URL() string         { return "http://" + ss.Addr() }
func (ss *swapServer) swap(h http.Handler) { ss.h.Store(h) }

// leaderBox runs a restartable leader: durable store + REST server.
// Optional knobs (set via start options) give the claim harness a fast
// heartbeat watchdog; a restart cancels the old incarnation's watchdog.
type leaderBox struct {
	t         *testing.T
	dir       string
	ss        *swapServer
	hbTimeout time.Duration // optional: Service.HeartbeatTimeout override
	watchdog  time.Duration // optional: run the watchdog at this interval
	segBytes  int64         // optional: WAL segment size (default 4 KiB)
	mu        sync.Mutex
	db        *relstore.DB
	svc       *core.Service
	wdCancel  context.CancelFunc
}

func startLeaderBox(t *testing.T, opts ...func(*leaderBox)) *leaderBox {
	t.Helper()
	lb := &leaderBox{t: t, dir: t.TempDir(), ss: newSwapServer(t)}
	for _, o := range opts {
		o(lb)
	}
	lb.open()
	t.Cleanup(func() {
		lb.mu.Lock()
		defer lb.mu.Unlock()
		if lb.wdCancel != nil {
			lb.wdCancel()
		}
		lb.db.Close()
	})
	return lb
}

func (lb *leaderBox) open() {
	lb.t.Helper()
	seg := lb.segBytes
	if seg == 0 {
		seg = 4 << 10
	}
	db, err := relstore.Open(lb.dir, &relstore.Options{SegmentBytes: seg, CompactEvery: -1})
	if err != nil {
		lb.t.Fatal(err)
	}
	svc, err := core.NewService(db, nil)
	if err != nil {
		lb.t.Fatal(err)
	}
	if lb.hbTimeout > 0 {
		svc.HeartbeatTimeout = lb.hbTimeout
	}
	server := rest.NewServer(svc)
	server.Logger = quietLog
	lb.mu.Lock()
	lb.db = db
	lb.svc = svc
	if lb.watchdog > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		lb.wdCancel = cancel
		svc.StartWatchdog(ctx, lb.watchdog)
	}
	lb.mu.Unlock()
	lb.ss.swap(server.Handler())
}

// restart bounces the leader process: requests 503 while it is down,
// the store reopens under a bumped epoch, and the same address serves
// the new incarnation.
func (lb *leaderBox) restart() {
	lb.t.Helper()
	lb.ss.swap(down)
	lb.mu.Lock()
	if lb.wdCancel != nil {
		lb.wdCancel()
		lb.wdCancel = nil
	}
	if err := lb.db.Close(); err != nil {
		lb.mu.Unlock()
		lb.t.Fatal(err)
	}
	lb.mu.Unlock()
	lb.open()
}

func (lb *leaderBox) DB() *relstore.DB {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.db
}

func (lb *leaderBox) Svc() *core.Service {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.svc
}

// followerBox runs a restartable follower: replication through a
// faultnet proxy to the leader, REST server over the replica.
type followerBox struct {
	t         *testing.T
	dir       string
	ss        *swapServer
	replProxy *faultnet.Proxy
	mu        sync.Mutex
	f         *repl.Follower
}

func startFollowerBox(t *testing.T, leaderAddr string) *followerBox {
	t.Helper()
	proxy, err := faultnet.New(leaderAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	fb := &followerBox{t: t, dir: t.TempDir(), ss: newSwapServer(t), replProxy: proxy}
	fb.open()
	t.Cleanup(func() {
		fb.mu.Lock()
		defer fb.mu.Unlock()
		fb.f.Close()
	})
	return fb
}

func (fb *followerBox) open() {
	fb.t.Helper()
	f, err := repl.Start(repl.Config{
		Dir:        fb.dir,
		Leader:     fb.replProxy.URL(),
		PollWait:   250 * time.Millisecond,
		RetryEvery: 10 * time.Millisecond,
		RetryMax:   250 * time.Millisecond,
		Logger:     quietLog,
	})
	if err != nil {
		fb.t.Fatal(err)
	}
	svc, err := core.NewService(f.DB(), nil)
	if err != nil {
		fb.t.Fatal(err)
	}
	server := rest.NewServer(svc)
	server.Repl = f
	server.Logger = quietLog
	server.ReadAfterWait = 750 * time.Millisecond
	fb.mu.Lock()
	fb.f = f
	fb.mu.Unlock()
	fb.ss.swap(server.Handler())
}

func (fb *followerBox) restart() {
	fb.t.Helper()
	fb.ss.swap(down)
	fb.mu.Lock()
	if err := fb.f.Close(); err != nil {
		fb.mu.Unlock()
		fb.t.Fatal(err)
	}
	fb.mu.Unlock()
	fb.open()
}

func (fb *followerBox) Follower() *repl.Follower {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.f
}

// actor drives one client session: write through the leader, read
// through the follower, verify the session guarantees on every
// successful read.
type actor struct {
	id     int
	c      *client.Client
	acked  map[string]string // name -> user ID this session got an ACK for
	seen   map[string]bool   // names ever observed in a successful read
	reads  int
	writes int
}

func (a *actor) step(t *testing.T, i int) {
	name := fmt.Sprintf("actor%d-%d", a.id, i)
	u, err := a.c.CreateUser(name, core.RoleViewer)
	if err == nil {
		a.acked[name] = u.ID
		a.writes++
		// Read-your-writes, pointedly: the just-ACKed row, by ID,
		// through the follower read path.
		got, gerr := a.c.GetUser(u.ID)
		switch {
		case gerr == nil:
			if got.Name != name {
				t.Errorf("actor %d: RYW violation: read of fresh user %s returned %q", a.id, u.ID, got.Name)
			}
		case isAvailabilityError(gerr):
			// A partitioned/degraded system may refuse; that is an
			// availability loss, not a consistency violation.
		default:
			t.Errorf("actor %d: RYW violation: read of fresh user %s (%s) failed definitively: %v", a.id, u.ID, name, gerr)
		}
	}
	users, err := a.c.ListUsers()
	if err != nil {
		if !isAvailabilityError(err) {
			t.Errorf("actor %d: list failed definitively: %v", a.id, err)
		}
		return
	}
	a.reads++
	now := make(map[string]bool, len(users))
	for _, u := range users {
		now[u.Name] = true
	}
	for name := range a.acked {
		if !now[name] {
			t.Errorf("actor %d: RYW violation: ACKed write %q missing from successful read", a.id, name)
		}
	}
	for name := range a.seen {
		if !now[name] {
			t.Errorf("actor %d: monotonic-read violation: previously seen %q disappeared", a.id, name)
		}
	}
	for name := range now {
		a.seen[name] = true
	}
}

// isAvailabilityError reports whether err is one the harness tolerates:
// the typed retryable/stale errors (which subsume transport failures —
// the SDK wraps those in ErrUnavailable).
func isAvailabilityError(err error) bool {
	return errors.Is(err, client.ErrUnavailable) || errors.Is(err, client.ErrStale)
}

// TestSessionGuaranteesUnderFaults is the headline harness described in
// the package comment. Run with -race; it is also exercised in CI. The
// chaos schedule is jittered from a logged seed — replay a failure with
// CHRONOS_SESSION_SEED.
func TestSessionGuaranteesUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewPCG(uint64(faultnet.HarnessSeed(t.Logf)), 0))
	lb := startLeaderBox(t)
	fb := startFollowerBox(t, lb.ss.Addr())

	// Clients reach the follower through their own fault proxy.
	readProxy, err := faultnet.New(fb.ss.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer readProxy.Close()

	const actors = 3
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for id := 0; id < actors; id++ {
		a := &actor{
			id: id,
			c: client.NewClient(readProxy.URL(),
				client.WithVersion("v2"),
				client.WithLeader(lb.ss.URL()),
				client.WithRetries(3),
				client.WithBackoff(25*time.Millisecond, 250*time.Millisecond),
				client.WithRequestTimeout(5*time.Second)),
			acked: make(map[string]string),
			seen:  make(map[string]bool),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				a.step(t, i)
				time.Sleep(15 * time.Millisecond)
			}
			if a.writes == 0 || a.reads == 0 {
				t.Errorf("actor %d made no progress at all (writes=%d reads=%d): harness is vacuous", a.id, a.writes, a.reads)
			}
		}()
	}

	// pause sleeps d plus up to 25% seeded jitter, so the chaos script's
	// phase boundaries land differently against the actors each run —
	// but identically for an identical seed.
	pause := func(d time.Duration) {
		d += time.Duration(rng.Int64N(int64(d) / 4))
		if testing.Short() {
			d /= 4
		}
		time.Sleep(d)
	}

	// --- the chaos script ---
	pause(1 * time.Second) // baseline: healthy network

	// Slow, jittery replication link: the follower lags, the read gate
	// has to wait (or the client has to fall back).
	fb.replProxy.SetLatency(20*time.Millisecond, 20*time.Millisecond)
	pause(1500 * time.Millisecond)
	fb.replProxy.SetLatency(0, 0)

	// Thin replication pipe.
	fb.replProxy.SetBandwidth(32 << 10)
	pause(1 * time.Second)
	fb.replProxy.SetBandwidth(0)

	// Client-side damage: torn responses and dropped connections. The
	// tear point is seeded so replays cut the stream at the same byte.
	for i := 0; i < 3; i++ {
		readProxy.TearNext(16 + rng.Int64N(112))
		pause(300 * time.Millisecond)
		readProxy.ResetAll()
	}

	// Hard replication partition: the follower can no longer prove
	// freshness; gated reads must time out retryably, never lie.
	fb.replProxy.SetPartitioned(true)
	pause(1500 * time.Millisecond)
	fb.replProxy.SetPartitioned(false)

	// Follower process restart: replica state reloads, generation
	// re-verifies, tokens keep working across it.
	fb.restart()
	pause(1 * time.Second)

	// Leader process restart: the epoch bumps, so every token minted
	// before this moment is from a past generation — the follower must
	// answer 412 (not stale data) until clients refresh.
	lb.restart()
	pause(1500 * time.Millisecond)

	// Forced re-bootstrap: partition replication, let the leader write
	// on and compact past everything the follower has, then heal — the
	// follower must notice (410) and re-bootstrap from the snapshot.
	fb.replProxy.SetPartitioned(true)
	pause(1 * time.Second)
	if err := lb.DB().Compact(); err != nil {
		t.Fatalf("forced compaction: %v", err)
	}
	fb.replProxy.SetPartitioned(false)
	pause(1500 * time.Millisecond)

	// --- wind down and verify convergence ---
	cancel()
	wg.Wait()

	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if err := fb.Follower().WaitCaughtUp(wctx); err != nil {
		t.Fatalf("follower never converged after the chaos: %v (status %+v)", err, fb.Follower().Status())
	}
	leaderUsers := userSet(t, lb.DB())
	followerUsers := userSet(t, fb.Follower().DB())
	if len(leaderUsers) == 0 {
		t.Fatal("no users written: harness is vacuous")
	}
	for name := range leaderUsers {
		if !followerUsers[name] {
			t.Errorf("converged follower is missing %q", name)
		}
	}
	for name := range followerUsers {
		if !leaderUsers[name] {
			t.Errorf("converged follower has ghost %q", name)
		}
	}
	st := fb.Follower().Status()
	if st.Bootstraps < 1 {
		t.Errorf("forced compaction did not cause a re-bootstrap: %+v", st)
	}
	t.Logf("converged with %d users; follower status: bootstraps=%d staleness=%dms",
		len(leaderUsers), st.Bootstraps, st.StalenessMs)
}

// userSet reads every user name straight from a store.
func userSet(t *testing.T, db *relstore.DB) map[string]bool {
	t.Helper()
	svc, err := core.NewService(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	users, err := svc.ListUsers()
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool, len(users))
	for _, u := range users {
		set[u.Name] = true
	}
	return set
}
