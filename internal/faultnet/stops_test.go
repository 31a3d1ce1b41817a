package faultnet_test

// The stops harness: real agent.Agents over pkg/client work off a queue on
// a durable leader while each of them is stopped and restarted at random.
// Most stops are graceful — the agent's context is cancelled, as SIGINT
// does, and Run hands back the job its last Complete claimed ahead — and a
// few are hard: the process is gone, nothing is handed back, and the job it
// was running and the one it held are left to the heartbeat watchdog.
//
// Claim-next hands jobs out before an agent has seen them, and a hand-back
// returns one with its attempt unspent, reusing the (job, attempt) pair
// claimcheck takes for the claim epoch. The history recorded here is of
// what ClaimJob *returned*: the proof obligation is that no epoch an agent
// was ever handed is handed out again, that every job still finishes, and
// that a graceful stop never leaves a job for the watchdog.

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos/internal/agent"
	"chronos/internal/claimcheck"
	"chronos/internal/core"
	"chronos/internal/faultnet"
	"chronos/internal/params"
)

var errKilled = errors.New("stops harness: agent process is gone")

// stoppableControl sits between one agent incarnation and its client. It
// records what the agent was handed and what it was acknowledged, and once
// killed it lets nothing through: the calls a dying process never got to
// make (the Fail of its running job, the HandBack of its held one).
type stoppableControl struct {
	agent.Control
	id     string
	rec    *claimcheck.Recorder
	killed atomic.Bool

	mu      sync.Mutex
	attempt map[string]int64 // job id -> attempt this incarnation was handed
}

func (s *stoppableControl) ClaimJob(dep string) (*core.Job, []params.Definition, error) {
	if s.killed.Load() {
		return nil, nil, errKilled
	}
	job, defs, err := s.Control.ClaimJob(dep)
	if err == nil && job != nil {
		s.rec.Claimed(s.id, job.ID, job.Attempts, "leader")
		s.mu.Lock()
		s.attempt[job.ID] = job.Attempts
		s.mu.Unlock()
	}
	return job, defs, err
}

func (s *stoppableControl) Progress(id string, pct int64) (core.JobStatus, error) {
	if s.killed.Load() {
		return "", errKilled
	}
	return s.Control.Progress(id, pct)
}

func (s *stoppableControl) Complete(id string, resultJSON, archive []byte) error {
	if s.killed.Load() {
		return errKilled
	}
	err := s.Control.Complete(id, resultJSON, archive)
	s.mu.Lock()
	attempt := s.attempt[id]
	s.mu.Unlock()
	s.rec.Completed(s.id, id, attempt, err == nil)
	return err
}

func (s *stoppableControl) Fail(id, reason string) error {
	if s.killed.Load() {
		return errKilled
	}
	return s.Control.Fail(id, reason)
}

func (s *stoppableControl) AppendLog(id, text string) error {
	if s.killed.Load() {
		return errKilled
	}
	return s.Control.AppendLog(id, text)
}

func (s *stoppableControl) HandBack(dep string) error {
	if s.killed.Load() {
		return nil // nobody is left to hear about it
	}
	return s.Control.HandBack(dep)
}

// briefRunner works for a moment, interruptibly: long enough that stops
// land mid-job as well as between jobs.
type briefRunner struct{ work time.Duration }

func (briefRunner) Prepare(*agent.RunContext) error { return nil }
func (briefRunner) WarmUp(*agent.RunContext) error  { return nil }
func (r briefRunner) Execute(rc *agent.RunContext) error {
	rc.Logf("job %s", rc.Job.ID)
	select {
	case <-rc.Context().Done():
		return rc.Err()
	case <-time.After(r.work):
		return nil
	}
}
func (briefRunner) Analyze(rc *agent.RunContext) (map[string]any, error) {
	return map[string]any{"i": rc.Params().Int("i", 0)}, nil
}
func (briefRunner) Clean(*agent.RunContext) error { return nil }

// TestAgentStopsExactlyOnce is the harness described in the file comment.
// -short scales the queue down and keeps both kinds of stop. Replay a
// failure with CHRONOS_SESSION_SEED.
func TestAgentStopsExactlyOnce(t *testing.T) {
	seed := faultnet.HarnessSeed(t.Logf)
	jobs, slots := 1500, 6
	if testing.Short() {
		jobs, slots = 250, 4
	}
	// A generous attempt budget: a graceful stop mid-job spends one (the
	// agent's Fail), a hard stop up to two (the watchdog, for the job it
	// ran and the job it held).
	const hbTimeout = time.Second
	f := startClaimFixture(t, 0, jobs, 100, hbTimeout, 100*time.Millisecond)

	var (
		graceful, hard atomic.Int64
		done           = make(chan struct{})
		wg             sync.WaitGroup
	)
	for slot := 0; slot < slots; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(seed), uint64(slot)))
			for life := 0; ; life++ {
				select {
				case <-done:
					return
				default:
				}
				// A restart is a new process: new client, nothing held.
				c, _ := f.newAgentClient(slot)
				ctl := &stoppableControl{
					Control: c,
					id:      fmt.Sprintf("slot-%d.%d", slot, life),
					rec:     f.rec,
					attempt: map[string]int64{},
				}
				work := time.Duration(rng.Int64N(int64(2 * time.Millisecond)))
				a := &agent.Agent{
					Control:        ctl,
					DeploymentID:   f.depID,
					Factory:        func() agent.Runner { return briefRunner{work: work} },
					PollInterval:   5 * time.Millisecond,
					ReportInterval: 50 * time.Millisecond,
				}
				ctx, cancel := context.WithCancel(context.Background())
				ran := make(chan error, 1)
				go func() { ran <- a.Run(ctx) }()
				select {
				case <-done:
				case <-time.After(time.Duration(5+rng.Int64N(60)) * time.Millisecond):
				}
				if rng.Int64N(8) == 0 {
					ctl.killed.Store(true) // kill -9: no Fail, no HandBack
					hard.Add(1)
				} else {
					graceful.Add(1)
				}
				cancel()
				if err := <-ran; !errors.Is(err, context.Canceled) && !errors.Is(err, errKilled) {
					t.Errorf("%s: Run = %v", ctl.id, err)
				}
			}
		}()
	}

	deadline := time.After(120 * time.Second)
	for finished := false; !finished; {
		select {
		case <-deadline:
			st, _ := f.lb.Svc().EvaluationStatusOf(f.evalID)
			t.Fatalf("queue not worked off in time: %+v", st)
		case <-time.After(50 * time.Millisecond):
		}
		st, err := f.lb.Svc().EvaluationStatusOf(f.evalID)
		finished = err == nil && st.Finished == st.Total
	}
	close(done)
	wg.Wait()

	// Exactly-once over what agents were handed, every job finished.
	f.verify(true)

	// What the stops cost. Only a hard stop may leave a job to the
	// watchdog — at most the one it ran and the one it held — and a
	// graceful one never: it fails its running job itself and releases the
	// one claimed ahead.
	svc := f.lb.Svc()
	all, err := svc.ListJobs(f.evalID)
	if err != nil {
		t.Fatal(err)
	}
	var lost, released, spent int64
	for _, j := range all {
		tl, err := svc.JobTimeline(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		claims := int64(0)
		for _, e := range tl {
			switch e.Kind {
			case core.EventClaimed:
				claims++
			case core.EventReleased:
				released++
				claims-- // the attempt was not spent
			case core.EventHeartbeatLost:
				lost++
			}
		}
		if claims != j.Attempts {
			t.Errorf("job %s: timeline accounts for %d spent attempt(s), the job says %d", j.ID, claims, j.Attempts)
		}
		spent += j.Attempts
	}
	if max := 2 * hard.Load(); lost > max {
		t.Errorf("%d job(s) left to the watchdog by %d hard stop(s) (at most %d): a graceful stop stranded a job", lost, hard.Load(), max)
	}
	if released == 0 {
		t.Errorf("no job was ever handed back in %d graceful stop(s): the harness is vacuous", graceful.Load())
	}
	t.Logf("%d jobs, %d graceful and %d hard stops: %d handed back, %d left to the watchdog, %d attempts spent",
		len(all), graceful.Load(), hard.Load(), released, lost, spent)
}
