package faultnet_test

// The claim fan-out harness: thousands of simulated agents work a queue
// off a leader through faultnet proxies, while a seeded chaos script
// injects latency, partitions, torn responses, connection resets and a
// leader restart. Half the agents drive ClaimJob and Complete by hand, one
// job each; the other half stage claim-next, so their Complete also claims
// the next job and the following ClaimJob returns it without a request —
// and some of those vanish or stop while holding a job claimed ahead.
// Every grant ClaimJob returned and every completion goes into a
// claimcheck history; at quiescence the checker proves exactly-once
// semantics mechanically — zero duplicate grants, zero phantom grants,
// zero lost jobs — rather than trusting that the run "looked right". Claim
// losses are allowed (a partitioned agent gives up, an orphaned claim is
// reclaimed by the watchdog at the next attempt number); a wrong grant
// never is.

import (
	"fmt"
	"math/rand/v2"
	"net/http"
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
// with a fast heartbeat watchdog, fronted by N agent-side faultnet
// proxies that each carry a share of the fleet.
type claimFixture struct {
	t         *testing.T
	lb        *leaderBox
	proxies   []*faultnet.Proxy // agent-side, all in front of the leader
	transport *http.Transport
	depID     string
	evalID    string
	hbTimeout time.Duration
	rec       *claimcheck.Recorder
	granted   atomic.Int64
	held      atomic.Int64 // grants ClaimJob returned without a request
	claimErrs atomic.Int64
}

func startClaimFixture(t *testing.T, proxies, jobs, maxAttempts int, hbTimeout, watchdog time.Duration) *claimFixture {
	t.Helper()
	f := &claimFixture{
		t:         t,
		hbTimeout: hbTimeout,
		rec:       claimcheck.NewRecorder(),
		// One shared transport for every simulated agent: without idle
		// connection reuse at this fan-in the harness exhausts ports,
		// which would measure the OS, not the claim path.
		transport: &http.Transport{MaxIdleConns: 4096, MaxIdleConnsPerHost: 2048},
	}
	f.lb = startLeaderBox(t, func(lb *leaderBox) {
		lb.hbTimeout = hbTimeout
		lb.watchdog = watchdog
		lb.segBytes = 1 << 20 // tens of thousands of commits: 4 KiB segments would mean thousands of files
	})
	for i := 0; i < proxies; i++ {
		proxy, err := faultnet.New(f.lb.ss.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { proxy.Close() })
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
	return f
}

// countingTransport counts the requests one agent's client sends: a job
// ClaimJob returned while the count stood still is one the client held,
// claimed ahead by the Complete before.
type countingTransport struct {
	http.RoundTripper
	n atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.RoundTripper.RoundTrip(r)
}

// newAgentClient builds the SDK client one simulated agent uses: every
// call goes to the leader, through the agent's proxy when the fixture has
// any. sent counts its requests.
func (f *claimFixture) newAgentClient(i int) (c *client.Client, sent *atomic.Int64) {
	base := f.lb.ss.URL()
	if len(f.proxies) > 0 {
		base = f.proxies[i%len(f.proxies)].URL()
	}
	ct := &countingTransport{RoundTripper: f.transport}
	return client.NewClient(base,
		client.WithVersion("v2"),
		client.WithRequestTimeout(3*time.Second),
		client.WithHTTPClient(&http.Client{Transport: ct, Timeout: 30 * time.Second})), &ct.n
}

// via labels a grant with the path the agent asked through. Debug detail
// only; the invariants never depend on it.
func (f *claimFixture) via(i int) string {
	if len(f.proxies) == 0 {
		return "leader"
	}
	return fmt.Sprintf("proxy-%d", i%len(f.proxies))
}

// claimOnce drives one agent's claim with a bounded retry budget (the
// SDK sends a claim once). A nil job with nil error means no
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

// runAgent is one simulated agent's whole life. It works off chain jobs:
// 1 is the hand-driven agent — claim, record the grant, complete — and
// more makes it stage claim-next before every Complete but the last, so
// each following ClaimJob returns what that Complete claimed. Roughly one
// time in abandonEvery it vanishes with a job running, leaving the
// watchdog to reclaim it at the next attempt number; between two jobs of a
// chain it may also vanish holding the job claimed ahead, or stop cleanly
// and hand that job back with its attempt unspent.
func (f *claimFixture) runAgent(id string, i, chain int, rng *rand.Rand, abandonEvery int64) {
	c, sent := f.newAgentClient(i)
	for n := 1; ; n++ {
		before := sent.Load()
		job := f.claimOnce(c, rng)
		if job == nil {
			return
		}
		f.rec.Claimed(id, job.ID, job.Attempts, f.via(i))
		f.granted.Add(1)
		if sent.Load() == before {
			f.held.Add(1)
		}
		claimedAt := time.Now()
		if rng.Int64N(abandonEvery) == 0 {
			return
		}
		if n < chain {
			c.StageClaim(job.ID, f.depID)
		}
		f.complete(c, id, job, claimedAt)
		if n == chain {
			return
		}
		switch rng.Int64N(abandonEvery) {
		case 0:
			return
		case 1:
			_ = c.HandBack(f.depID) // best effort: a hand-back that is lost leaves the job to the watchdog
			return
		}
	}
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
			c, _ := f.newAgentClient(w)
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
// file comment. The full run pushes over 5k agents — half of them working
// chains of three jobs through claim-next — at the leader through two
// proxies under chaos; -short scales the fleet down but keeps every fault
// class. Replay a failure with CHRONOS_SESSION_SEED.
func TestClaimFanoutExactlyOnce(t *testing.T) {
	seed := faultnet.HarnessSeed(t.Logf)
	chaosRng := rand.New(rand.NewPCG(uint64(seed), 1))

	// Hand-driven agents take one job and staging ones up to three, so the
	// fleet has a few more hands than the queue has jobs.
	agents, jobs, conc := 5250, 10000, 500
	if testing.Short() {
		agents, jobs, conc = 330, 600, 60
	}
	const hbTimeout = 4 * time.Second
	f := startClaimFixture(t, 2, jobs, 500, hbTimeout, 500*time.Millisecond)

	// The chaos script runs one pass concurrently with the agent waves:
	// every fault class hand-out must absorb, including the leader
	// restart. Its clock is the fleet's progress, not the wall: at waits
	// until that share of the queue has been granted, so each fault lands
	// on a working fleet however fast the machine is (the waves are over
	// in a fraction of a second under -short).
	wavesOver := make(chan struct{})
	at := func(share float64) {
		for f.granted.Load() < int64(share*float64(jobs)) {
			select {
			case <-wavesOver:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		at(0.05)
		// A slow path for half the fleet: claims and completes in flight
		// for longer, interleaving with the other half's.
		f.proxies[0].SetLatency(10*time.Millisecond, 15*time.Millisecond)
		at(0.20)
		f.proxies[0].SetLatency(0, 0)
		// Torn responses: acks lost after commit. A retried claim must
		// get a different job, never the same grant; a job claimed by a
		// Complete whose answer was lost is one no agent knows of, and is
		// the watchdog's.
		for i := 0; i < 3; i++ {
			at(0.25 + 0.05*float64(i))
			f.proxies[1].TearNext(16 + chaosRng.Int64N(112))
			time.Sleep(time.Duration(5+chaosRng.Int64N(20)) * time.Millisecond)
			f.proxies[1].ResetAll()
		}
		// Hard partition of half the fleet from the leader: its agents
		// run out of retries and give up, their jobs with them.
		at(0.45)
		f.proxies[1].SetPartitioned(true)
		at(0.60)
		f.proxies[1].SetPartitioned(false)
		// Leader process bounce: requests 503 while it is down, and every
		// running job's agent must find it again or lose the job.
		at(0.75)
		f.lb.restart()
		at(0.85)
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
				chain := 1
				if i/len(f.proxies)%2 == 1 { // both kinds behind each proxy
					chain = 3
				}
				f.runAgent(fmt.Sprintf("a-%05d", i), i, chain, rng, 97)
			}(i)
		}
		wg.Wait()
	}
	waves := time.Since(start)
	close(wavesOver)
	<-chaosDone

	drainBudget := 120 * time.Second
	if testing.Short() {
		drainBudget = 60 * time.Second
	}
	f.drain(16, drainBudget)

	f.verify(true)
	granted, held := f.granted.Load(), f.held.Load()
	if held == 0 {
		t.Errorf("claim-next is vacuous: none of %d grants was a job claimed ahead", granted)
	}
	if granted < int64(jobs) {
		t.Errorf("only %d grants recorded for %d jobs", granted, jobs)
	}
	t.Logf("%d agents, %d jobs: %d grants, %d of them claimed ahead (%.0f claims/s in the wave phase), %d transient claim errors",
		agents, jobs, granted, held, float64(granted)/waves.Seconds(), f.claimErrs.Load())
}
