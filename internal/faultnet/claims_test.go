package faultnet_test

// The claim fan-out harness: thousands of simulated agents claim jobs
// through faultnet-proxied followers holding claim leases, while a
// seeded chaos script injects latency, partitions, torn responses,
// connection resets, a follower restart and a leader restart (which
// wipes the soft-state lease table). Every acknowledged grant and
// completion goes into a claimcheck history; at quiescence the checker
// proves exactly-once semantics mechanically — zero duplicate grants,
// zero phantom grants, zero lost jobs — rather than trusting that the
// run "looked right". Claim losses are allowed (a partitioned follower
// may refuse, an orphaned claim is reclaimed by the watchdog at the
// next attempt number); a wrong grant never is.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos/internal/claimcheck"
	"chronos/internal/core"
	"chronos/internal/faultnet"
	"chronos/internal/params"
	"chronos/pkg/client"
)

// claimFixture owns the cluster for one claim-harness run: a leader
// with a fast heartbeat watchdog and N claim-delegating followers, each
// fronted by an agent-side faultnet proxy.
type claimFixture struct {
	t         *testing.T
	lb        *leaderBox
	followers []*followerBox
	proxies   []*faultnet.Proxy // agent-side, one per follower REST endpoint
	hc        *http.Client
	depID     string
	evalID    string
	jobs      int
	hbTimeout time.Duration
	rec       *claimcheck.Recorder
	granted   atomic.Int64
	claimErrs atomic.Int64
}

func startClaimFixture(t *testing.T, followers, jobs, maxAttempts int, hbTimeout, watchdog time.Duration) *claimFixture {
	t.Helper()
	f := &claimFixture{
		t:         t,
		jobs:      jobs,
		hbTimeout: hbTimeout,
		rec:       claimcheck.NewRecorder(),
		// One shared transport for every simulated agent: without idle
		// connection reuse at this fan-in the harness exhausts ports,
		// which would measure the OS, not the claim path.
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConns: 4096, MaxIdleConnsPerHost: 2048},
			Timeout:   30 * time.Second,
		},
	}
	f.lb = startLeaderBox(t, func(lb *leaderBox) {
		lb.hbTimeout = hbTimeout
		lb.watchdog = watchdog
		lb.segBytes = 1 << 20 // tens of thousands of commits: 4 KiB segments would mean thousands of files
	})
	for i := 0; i < followers; i++ {
		id := fmt.Sprintf("follower-%d", i)
		fb := startFollowerBox(t, f.lb.ss.Addr(), func(fb *followerBox) {
			fb.claimID = id
			fb.claimTTL = 2 * time.Second
		})
		proxy, err := faultnet.New(fb.ss.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { proxy.Close() })
		f.followers = append(f.followers, fb)
		f.proxies = append(f.proxies, proxy)
	}

	// Seed the work directly on the leader service: one evaluation with
	// `jobs` jobs. A large attempt budget keeps watchdog-reclaimed jobs
	// reschedulable for as long as the chaos lasts.
	svc := f.lb.Svc()
	u, err := svc.CreateUser("op", core.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	p, err := svc.CreateProject("p", "", u.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	defs := []params.Definition{{Name: "i", Type: params.TypeInterval, Min: 1, Max: float64(jobs + 1), Default: params.Int(1)}}
	sys, err := svc.RegisterSystem("sut", "", defs, nil)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := svc.CreateDeployment(sys.ID, "d", "", "")
	if err != nil {
		t.Fatal(err)
	}
	variants := make([]params.Value, jobs)
	for i := range variants {
		variants[i] = params.Int(int64(i + 1))
	}
	exp, err := svc.CreateExperiment(p.ID, sys.ID, "e", "", map[string][]params.Value{"i": variants}, maxAttempts)
	if err != nil {
		t.Fatal(err)
	}
	ev, created, err := svc.CreateEvaluation(exp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != jobs {
		t.Fatalf("created %d jobs, want %d", len(created), jobs)
	}
	f.depID = dep.ID
	f.evalID = ev.ID

	// Followers must see the deployment before they can serve claims;
	// waiting here keeps the measurement about claims, not bootstrap.
	wctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, fb := range f.followers {
		if err := fb.Follower().WaitCaughtUp(wctx); err != nil {
			t.Fatalf("follower never caught up before the run: %v", err)
		}
	}
	return f
}

// newAgentClient builds the SDK client one simulated agent uses: claims
// read-path through follower i's proxy, mutations and fallback to the
// leader — the exact wiring a fleet deployment would use.
func (f *claimFixture) newAgentClient(i int) *client.Client {
	base := f.lb.ss.URL() // no followers: straight at the leader
	if len(f.proxies) > 0 {
		base = f.proxies[i%len(f.proxies)].URL()
	}
	return client.NewClient(base,
		client.WithVersion("v2"),
		client.WithLeader(f.lb.ss.URL()),
		client.WithRetries(3),
		client.WithBackoff(10*time.Millisecond, 200*time.Millisecond),
		client.WithRequestTimeout(3*time.Second),
		client.WithHTTPClient(f.hc))
}

func (f *claimFixture) via(i int) string {
	if len(f.proxies) == 0 {
		return "leader"
	}
	// Best-effort label: the endpoint the agent asked, which under
	// fallback may not be the endpoint that answered. Debug detail only;
	// the invariants never depend on it.
	return fmt.Sprintf("follower-%d", i%len(f.proxies))
}

// claimOnce drives one agent's claim with a bounded retry budget around
// the SDK's own retry/fallback loop. A nil job with nil error means no
// work was visible; any persistent error means this agent gives up (the
// job it might have gotten stays for the drainers — an availability
// loss, never a correctness one).
func (f *claimFixture) claimOnce(c *client.Client, rng *rand.Rand) *core.Job {
	for try := 0; try < 8; try++ {
		job, _, err := c.ClaimJob(f.depID)
		if err == nil {
			return job // may be nil: no visible work
		}
		f.claimErrs.Add(1)
		time.Sleep(time.Duration(20+rng.Int64N(80)) * time.Millisecond)
	}
	return nil
}

// complete reports the job done, retrying transient failures only while
// well inside the heartbeat window: an agent that cannot reach the
// leader for half the heartbeat timeout must assume the watchdog will
// reclaim its job and stop, exactly like a real fleet agent.
func (f *claimFixture) complete(c *client.Client, agent string, job *core.Job, claimedAt time.Time) {
	deadline := claimedAt.Add(f.hbTimeout / 2)
	for {
		err := c.Complete(job.ID, []byte(`{"ok":true}`), nil)
		if err == nil {
			f.rec.Completed(agent, job.ID, job.Attempts, true)
			return
		}
		if !isAvailabilityError(err) || time.Now().After(deadline) {
			f.rec.Completed(agent, job.ID, job.Attempts, false)
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// runAgent is one simulated agent's whole life: claim once through its
// follower, record the grant, then either complete or — for roughly one
// agent in abandonEvery — vanish, leaving the watchdog to reclaim the
// job at the next attempt number.
func (f *claimFixture) runAgent(id string, i int, rng *rand.Rand, abandonEvery int64) {
	c := f.newAgentClient(i)
	job := f.claimOnce(c, rng)
	if job == nil {
		return
	}
	f.rec.Claimed(id, job.ID, job.Attempts, f.via(i))
	f.granted.Add(1)
	claimedAt := time.Now()
	if abandonEvery > 0 && rng.Int64N(abandonEvery) == 0 {
		return
	}
	f.complete(c, id, job, claimedAt)
}

// drain runs a small pool of looping agents until every job is
// finished or the deadline passes — they mop up whatever the one-shot
// waves orphaned (abandoners, lost acks, watchdog reclaims).
func (f *claimFixture) drain(workers int, deadline time.Duration) {
	t := f.t
	done := make(chan struct{})
	var once sync.Once
	finish := func() { once.Do(func() { close(done) }) }
	go func() {
		defer finish()
		end := time.Now().Add(deadline)
		for time.Now().Before(end) {
			st, err := f.lb.Svc().EvaluationStatusOf(f.evalID)
			if err == nil && st.Finished == st.Total {
				return
			}
			time.Sleep(100 * time.Millisecond)
		}
		t.Error("drain deadline passed before every job finished")
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("drain-%d", w)
			c := f.newAgentClient(w)
			rng := rand.New(rand.NewPCG(0xd7a1a, uint64(w)))
			for {
				select {
				case <-done:
					return
				default:
				}
				job := f.claimOnce(c, rng)
				if job == nil {
					time.Sleep(time.Duration(50+rng.Int64N(100)) * time.Millisecond)
					continue
				}
				f.rec.Claimed(id, job.ID, job.Attempts, f.via(w))
				f.granted.Add(1)
				f.complete(c, id, job, time.Now())
			}
		}(w)
	}
	<-done
	wg.Wait()
}

// verify runs the claimcheck invariants against the store's final state.
func (f *claimFixture) verify(requireDrained bool) {
	t := f.t
	jobs, err := f.lb.Svc().ListJobs(f.evalID)
	if err != nil {
		t.Fatal(err)
	}
	finals := make([]claimcheck.FinalJob, len(jobs))
	for i, j := range jobs {
		finals[i] = claimcheck.FinalJob{ID: j.ID, Status: string(j.Status), Attempts: j.Attempts}
	}
	vs := claimcheck.Check(f.rec.History(), finals, requireDrained)
	for i, v := range vs {
		if i == 20 {
			t.Errorf("... and %d more violations", len(vs)-20)
			break
		}
		t.Errorf("claim invariant broken: %s", v)
	}
}

// TestClaimFanoutExactlyOnce is the headline harness described in the
// file comment. The full run pushes >10k one-shot agents through two
// leased followers under chaos; -short scales the fleet down but keeps
// every fault class. Replay a failure with CHRONOS_SESSION_SEED.
func TestClaimFanoutExactlyOnce(t *testing.T) {
	seed := faultnet.HarnessSeed(t.Logf)
	chaosRng := rand.New(rand.NewPCG(uint64(seed), 1))

	agents, jobs, conc := 10500, 10000, 500
	if testing.Short() {
		agents, jobs, conc = 660, 600, 60
	}
	const hbTimeout = 4 * time.Second
	f := startClaimFixture(t, 2, jobs, 500, hbTimeout, 500*time.Millisecond)

	jitter := func(d time.Duration) time.Duration {
		return d + time.Duration(chaosRng.Int64N(int64(d)/2))
	}

	// The chaos script runs one pass concurrently with the agent waves:
	// every fault class the delegation protocol must absorb, including
	// the leader restart that forgets every lease.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		time.Sleep(jitter(500 * time.Millisecond))
		// Laggy replication to follower 0: its replica trails, its
		// lease renewals slow down.
		f.followers[0].replProxy.SetLatency(10*time.Millisecond, 15*time.Millisecond)
		time.Sleep(jitter(time.Second))
		f.followers[0].replProxy.SetLatency(0, 0)
		// Torn agent-side responses: acks lost after commit — the
		// retried claim must get a different job, never the same grant.
		for i := 0; i < 3; i++ {
			f.proxies[1].TearNext(16 + chaosRng.Int64N(112))
			time.Sleep(jitter(300 * time.Millisecond))
			f.proxies[1].ResetAll()
		}
		// Hard partition of follower 1's repl channel: no lease
		// renewal, no intent shipping; its agents fall back.
		f.followers[1].replProxy.SetPartitioned(true)
		time.Sleep(jitter(1500 * time.Millisecond))
		f.followers[1].replProxy.SetPartitioned(false)
		// Follower 0 process bounce: new claimer, fresh lease.
		f.followers[0].restart()
		time.Sleep(jitter(time.Second))
		// Leader process bounce: the lease table is soft state, so
		// every outstanding lease dies with it; intents in flight are
		// refused with 412 and followers must re-grant.
		f.lb.restart()
		time.Sleep(jitter(time.Second))
		f.proxies[0].ResetAll()
	}()

	start := time.Now()
	for wave := 0; wave < (agents+conc-1)/conc; wave++ {
		var wg sync.WaitGroup
		for k := 0; k < conc && wave*conc+k < agents; k++ {
			i := wave*conc + k
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(seed), uint64(2+i)))
				f.runAgent(fmt.Sprintf("a-%05d", i), i, rng, 97)
			}(i)
		}
		wg.Wait()
	}
	waves := time.Since(start)
	<-chaosDone

	drainBudget := 120 * time.Second
	if testing.Short() {
		drainBudget = 60 * time.Second
	}
	f.drain(16, drainBudget)

	f.verify(true)
	served0, served1 := f.followers[0].claimsServed(), f.followers[1].claimsServed()
	if served0 == 0 || served1 == 0 {
		t.Errorf("fan-out is vacuous: followers served %d and %d delegated claims", served0, served1)
	}
	granted := f.granted.Load()
	if granted < int64(jobs) {
		t.Errorf("only %d grants recorded for %d jobs", granted, jobs)
	}
	t.Logf("%d agents, %d jobs: %d grants (%.0f claims/s in the wave phase), followers served %d+%d, %d transient claim errors",
		agents, jobs, granted, float64(granted)/waves.Seconds(), served0, served1, f.claimErrs.Load())
}

// benchSeries is one followers-count data point of the trajectory.
type benchSeries struct {
	Followers    int
	Wall         time.Duration
	ClaimsPerSec float64
	P50Ms        float64
	P99Ms        float64
}

// TestClaimThroughputTrajectory measures claims/s and claim latency at
// 0, 1 and 2 delegating followers on a healthy network and logs the
// series; the numbers carry no comparison between series (the armed
// capacity assertion, leader CPU per granted claim, is ROADMAP item 3).
// What every run does check is that no series stalls: a delegating
// series more than 5x slower than the leader alone in the same run is
// not host noise (the measured gap is 1.5-2.5x) but claimable jobs hidden
// from the followers — the skipTTL stall, which cost 10 s.
func TestClaimThroughputTrajectory(t *testing.T) {
	jobs, conc := 1500, 96
	if testing.Short() {
		jobs, conc = 240, 24
	}
	series := make([]benchSeries, 0, 3)
	for _, followers := range []int{0, 1, 2} {
		s := runClaimTrajectory(t, followers, jobs, conc)
		series = append(series, s)
		t.Logf("followers=%d: %.0f claims/s in %v, p50 %.1fms, p99 %.1fms", s.Followers, s.ClaimsPerSec, s.Wall.Round(time.Millisecond), s.P50Ms, s.P99Ms)
		if s.Wall > 5*series[0].Wall {
			t.Errorf("followers=%d took %v, over 5x the leader alone (%v): claims stalled", s.Followers, s.Wall, series[0].Wall)
		}
	}
}

// runClaimTrajectory drives one clean (chaos-free) fan-out run and
// returns its throughput numbers. Even the bench run goes through the
// full claimcheck gate: performance numbers from a run that broke
// exactly-once would be worthless.
func runClaimTrajectory(t *testing.T, followers, jobs, conc int) benchSeries {
	f := startClaimFixture(t, followers, jobs, 0, 30*time.Second, 0)

	var mu sync.Mutex
	lats := make([]time.Duration, 0, jobs)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("b-%04d", w)
			c := f.newAgentClient(w)
			rng := rand.New(rand.NewPCG(0xbe7c4, uint64(w)))
			for f.granted.Load() < int64(jobs) {
				t0 := time.Now()
				job := f.claimOnce(c, rng)
				if job == nil {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				lat := time.Since(t0)
				f.rec.Claimed(id, job.ID, job.Attempts, f.via(w))
				f.granted.Add(1)
				mu.Lock()
				lats = append(lats, lat)
				mu.Unlock()
				f.complete(c, id, job, time.Now())
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	f.verify(true)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) == 0 {
		t.Fatal("no claims granted at all")
	}
	return benchSeries{
		Followers:    followers,
		Wall:         elapsed,
		ClaimsPerSec: float64(len(lats)) / elapsed.Seconds(),
		P50Ms:        float64(lats[len(lats)/2].Microseconds()) / 1000,
		P99Ms:        float64(lats[len(lats)*99/100].Microseconds()) / 1000,
	}
}
