//go:build linux

package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/params"
)

// slowRead is the latency above which a viewer read counts as failed.
const slowRead = time.Second

// noopRunner is the evaluation client of the control-plane workloads: it
// does no work, so everything the job costs is Chronos's own. One log
// line and a one-key result make the agent send its usual four calls
// (claim, log, progress, complete).
type noopRunner struct{}

func (noopRunner) Prepare(*agent.RunContext) error { return nil }
func (noopRunner) WarmUp(*agent.RunContext) error  { return nil }
func (noopRunner) Execute(rc *agent.RunContext) error {
	rc.Logf("noop job %s v=%d", rc.Job.ID, rc.Params().Int("v", 0))
	return nil
}
func (noopRunner) Analyze(rc *agent.RunContext) (map[string]any, error) {
	return map[string]any{"v": rc.Params().Int("v", 0)}, nil
}
func (noopRunner) Clean(*agent.RunContext) error { return nil }

// ledger is what one load goroutine observed: which jobs it was handed,
// which completions were acknowledged, and how long things took. It is
// the input of the correctness audit and of every loadgen-side metric.
type ledger struct {
	origin time.Time
	// until is when the client stops taking new work: a run is bounded
	// by time, not by a queue, so a slow host cannot stretch it.
	until time.Time

	claimed []string // job ids handed out, in order
	acked   []ackedJob
	calls   int // calls made through pkg/client, whole run
	errors  int // those that returned an error

	claim  series // ClaimJob through pkg/client (non-empty answers)
	rtt    series // one RunOnce (claim -> complete)
	submit series // CreateEvaluation (mixed_rw)
	ryw    series // read-your-write GetJob on the follower

	work series // everything done in the work phases, one sample per loop turn
	twin series // the twin jobs of the twin phases
	// twinLinger is a timer wait that follows every twin job of this
	// client (follower_reads, whose turns end in one); twinTurns are the
	// twin jobs with it, twin without.
	twinLinger time.Duration
	twinTurns  series
	twinErrs   int // twin jobs that failed: a harness failure
}

type ackedJob struct {
	id  string
	end time.Duration // when the Complete ack arrived
}

// shared is the little state the load goroutines of one run exchange.
type shared struct {
	done     atomic.Int64           // completions acknowledged so far
	lastDone atomic.Pointer[string] // id of the newest finished job
	current  atomic.Pointer[string] // evaluation the viewer watches
}

// timedControl is the untraced measurement shim around agent.Control: it
// timestamps ClaimJob, records claims, acknowledgements and errors in
// the ledger, and tells the viewers (through sh, when set) which job
// finished last. It is not a span recorder — the traced run has its own
// decorator.
type timedControl struct {
	agent.Control
	led *ledger
	sh  *shared
	mu  sync.Mutex // the agent's reporter goroutine may call concurrently
}

func (t *timedControl) ClaimJob(dep string) (*core.Job, []params.Definition, error) {
	start := time.Now()
	job, defs, err := t.Control.ClaimJob(dep)
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.led.calls++
	if err != nil {
		t.led.errors++
	} else if job != nil {
		t.led.claim.add(t.led.origin, start, end)
		t.led.claimed = append(t.led.claimed, job.ID)
	}
	return job, defs, err
}

func (t *timedControl) note(err error) {
	t.mu.Lock()
	t.led.calls++
	if err != nil {
		t.led.errors++
	}
	t.mu.Unlock()
}

func (t *timedControl) Progress(id string, pct int64) (core.JobStatus, error) {
	st, err := t.Control.Progress(id, pct)
	t.note(err)
	return st, err
}

func (t *timedControl) AppendLog(id, text string) error {
	err := t.Control.AppendLog(id, text)
	t.note(err)
	return err
}

func (t *timedControl) Complete(id string, res, archive []byte) error {
	err := t.Control.Complete(id, res, archive)
	t.mu.Lock()
	t.led.calls++
	if err != nil {
		t.led.errors++
	} else {
		t.led.acked = append(t.led.acked, ackedJob{id: id, end: time.Since(t.led.origin)})
	}
	t.mu.Unlock()
	if err == nil && t.sh != nil {
		t.sh.done.Add(1)
		t.sh.lastDone.Store(&id)
	}
	return err
}

// twinTurn runs one twin job if the phase clock says so and reports
// whether it did. Every closed-loop client calls it at the top of its
// loop.
func (l *ledger) twinTurn(tc *twinClient, now time.Time) bool {
	if !inTwinPhase(l.origin, now) {
		return false
	}
	if err := tc.job(); err != nil {
		l.twinErrs++
		time.Sleep(time.Millisecond) // a dead twin server must not spin
		return true
	}
	l.twin.add(l.origin, now, time.Now())
	if l.twinLinger > 0 {
		time.Sleep(l.twinLinger)
	}
	l.twinTurns.add(l.origin, now, time.Now())
	return true
}

// runAgent is one closed-loop client: an agent.Agent that claims and
// runs no-op jobs through ctl in the work phases and twin jobs in the
// twin phases, until led.until or until the queue is empty (it reports
// which: true = the queue ran dry).
func runAgent(ctx context.Context, ctl agent.Control, dep string, led *ledger, tc *twinClient) (dry bool) {
	a := &agent.Agent{
		Control:      ctl,
		DeploymentID: dep,
		Factory:      func() agent.Runner { return noopRunner{} },
	}
	for fails := 0; fails < 10; {
		start := time.Now()
		if !start.Before(led.until) {
			return false
		}
		if led.twinTurn(tc, start) {
			continue
		}
		worked, err := a.RunOnce(ctx)
		if err != nil {
			fails++ // counted by timedControl; a dead server must not spin forever
			continue
		}
		if !worked {
			return true
		}
		end := time.Now()
		led.rtt.add(led.origin, start, end)
		led.work.add(led.origin, start, end)
	}
	return false
}

// readKind is one stream of the open-loop viewer.
type readKind struct {
	name string
	rate float64 // requests per second
	call func() error
}

// readLog is what the open-loop viewer observed.
type readLog struct {
	lat    map[string]*series // per stream, timed from when the read was due
	late   series             // how late the generator issued each read
	reads  int                // reads issued, whole run
	errors int                // those that returned an error
	slow   int                // those that took over slowRead from their due time
}

// runReader issues each stream's reads on a fixed schedule from one
// goroutine and one connection: an independent user refreshing a page.
// A read is timed from the instant it was due, so a stall charges the
// reads queued behind it; how late each read actually went out is
// recorded separately. phase shifts the streams against each other and
// is derived from the seed (the read order input).
func runReader(kinds []readKind, phase time.Duration, origin time.Time, stop *atomic.Bool) *readLog {
	rl := &readLog{lat: map[string]*series{}}
	type ev struct {
		due  time.Time
		kind int
	}
	next := make([]ev, len(kinds))
	for i, k := range kinds {
		rl.lat[k.name] = &series{}
		next[i] = ev{due: origin.Add(phase * time.Duration(i+1)), kind: i}
	}
	for !stop.Load() {
		sort.Slice(next, func(i, j int) bool { return next[i].due.Before(next[j].due) })
		e := &next[0]
		if d := time.Until(e.due); d > 0 {
			time.Sleep(min(d, 20*time.Millisecond)) // short naps keep stop responsive
			continue
		}
		k := kinds[e.kind]
		sent := time.Now()
		err := k.call()
		end := time.Now()
		if err == errNotYet { // the stream has no target yet: not a read
			e.due = e.due.Add(time.Duration(float64(time.Second) / k.rate))
			continue
		}
		rl.reads++
		rl.late.add(origin, e.due, sent)
		rl.lat[k.name].add(origin, e.due, end)
		if err != nil {
			rl.errors++
		} else if end.Sub(e.due) > slowRead {
			rl.slow++
		}
		e.due = e.due.Add(time.Duration(float64(time.Second) / k.rate))
	}
	return rl
}
