//go:build linux

package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"chronos/internal/core"
	"chronos/pkg/client"
)

// Workload names, in report order.
const (
	wlFleetNoop     = "fleet_noop"
	wlEvalHeavy     = "eval_heavy"
	wlMixedRW       = "mixed_rw"
	wlFollowerReads = "follower_reads"
)

var workloadNames = []string{wlFleetNoop, wlEvalHeavy, wlMixedRW, wlFollowerReads}

// workloadWhy is the one-line reason each workload exists; BENCHMARK.json
// carries the same text and the smoke test keeps the two equal.
var workloadWhy = map[string]string{
	wlFleetNoop:     "no-op jobs: the control plane (client, REST, core, relstore, WAL) does all the work and the SUT none",
	wlEvalHeavy:     "real chronos-agent runs ~0.5 s simulator jobs: the workload engine and SUTs do over 95% of the work, the control plane almost none",
	wlMixedRW:       "sweep submissions, claim/complete commits and table-scanning viewer reads contend for the same table locks",
	wlFollowerReads: "WAL shipping, follower apply and read-your-write waits are on the blocking path of every job",
}

// runOpts sizes one workload run.
type runOpts struct {
	seconds time.Duration // measured window
	warmup  time.Duration // discarded before it
	// setups is how many times the workload is set up (setup_s is the
	// median; the last world is the one used), each followed by its twin,
	// and recoveries how many kill -9 / restart cycles fleet_noop ends
	// with.
	setups     int
	recoveries int
	// traced adds the samplers only the per-layer numbers need: the
	// follower's replication gauges at 10 Hz on follower_reads.
	traced bool
}

// result is everything one workload run measured.
type result struct {
	workload  string
	vals      values
	attempted int
	failed    int
	problems  []string // correctness failures; empty = outputs correct
	notes     []string // stated load and check lines for the report
}

var errNotYet = errors.New("nothing to read yet")

// runWorkload runs one workload end to end: timed set-ups, load, audit,
// on fleet_noop the recovery cycles with re-audit, teardown.
func (e *env) runWorkload(name string, o runOpts) (*result, error) {
	res := &result{workload: name, vals: values{}}
	pl, err := e.planFor(name, o)
	if err != nil {
		return nil, err
	}

	// setup_s: set up several times, each time followed by the set-up
	// twin, and report the median of the set-up times scaled by how much
	// slower than nominal the twin ran at that moment.
	var w *world
	var raw, twins, scaled []float64
	tc := e.newTwinClient()
	for i := 0; i < o.setups; i++ {
		if w != nil {
			w.teardown()
		}
		var d time.Duration
		if w, d, err = e.setup(name, pl); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		tw, err := tc.setupTwin()
		if err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: set-up twin: %w", name, err)
		}
		raw, twins = append(raw, d.Seconds()), append(twins, ms(tw))
		scaled = append(scaled, d.Seconds()*setupTwinNominal.Seconds()/tw.Seconds())
	}
	defer func() { w.teardown() }()
	res.notes = append(res.notes, fmt.Sprintf("set-ups (s): %.3f, their twins (ms): %.0f", raw, twins))
	res.vals.set("setup_s", median(scaled), len(scaled))
	res.vals.set("setup_raw_s", median(raw), len(raw))
	res.vals.set("twin.setup_ms", median(twins), len(twins))

	var leds []*ledger
	switch name {
	case wlFleetNoop:
		leds, err = e.fleetNoop(w, o, res)
	case wlEvalHeavy:
		err = e.evalHeavy(w, o, pl, res)
	case wlMixedRW:
		leds, err = e.mixedRW(w, o, pl, res)
	case wlFollowerReads:
		leds, err = e.followerReads(w, o, res)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	for _, l := range leds {
		if l.twinErrs > 0 {
			res.problems = append(res.problems, fmt.Sprintf("%d twin jobs failed (see %s)", l.twinErrs, e.twin.log.Name()))
		}
	}
	w.endMetrics(res.vals)
	res.problems = append(res.problems, w.audit(leds, 0)...)
	if name == wlFleetNoop {
		if err := w.recoveryCycles(o.recoveries, leds, res); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	res.vals.set("failed_share", float64(res.failed)/float64(max(res.attempted, 1)), res.attempted)
	return res, nil
}

// recoveryCycles ends fleet_noop: n times kill -9 the leader, start it
// on the same data directory, time until the first successful ping, and
// audit again.
func (w *world) recoveryCycles(n int, leds []*ledger, res *result) error {
	var recov []float64
	for i := 0; i < n; i++ {
		old := w.leader
		old.kill()
		start := time.Now()
		var err error
		if w.leader, err = old.restart(); err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		if _, err := waitPing(w.leader.url, w.leader, 30*time.Second); err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		recov = append(recov, time.Since(start).Seconds())
		w.admin = newClient(w.leader.url)
		for _, p := range w.audit(leds, 50) {
			res.problems = append(res.problems, fmt.Sprintf("after restart %d: %s", i+1, p))
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("recoveries (s): %.3f", recov))
	r, rows := median(recov), res.vals["relstore.rows_end"].V
	res.vals.set("recovery_s", r, len(recov))
	res.vals.set("relstore.wal.replay_rows_per_s", rows/r, int(rows))
	return nil
}

// Reference rates (jobs per second on the quiet 2-vCPU sandbox with
// every client working) that size the pre-filled queues. A run is bounded
// by time: the clients stop at the end of the window and leave the rest
// of the queue scheduled, so the queue only has to outlast the window on
// a system twice as fast as the reference. Should it run dry all the
// same, the window ends early and the report says so.
const (
	refFleetPerClient = 250.0
	refFollowerWriter = 210.0
)

// planFor sizes the set-up from the run length.
func (e *env) planFor(name string, o runOpts) (plan, error) {
	span := (o.seconds + o.warmup).Seconds()
	variants := 1000
	if o.seconds < 5*time.Second {
		variants = 250 // the smoke test
	}
	// The clients work phaseWork of every phaseWork+phaseTwin.
	duty := float64(phaseWork) / float64(phaseWork+phaseTwin)
	evalsFor := func(rate float64, size int) int {
		return max(1, int(math.Ceil(span*rate*duty*2/float64(size))))
	}
	switch name {
	case wlFleetNoop:
		return plan{variants: variants, evals: evalsFor(refFleetPerClient*float64(e.clients()), variants)}, nil
	case wlFollowerReads:
		size := variants / 2 // one writer: 500-job evaluations size the queue finely enough
		return plan{follower: true, variants: size, evals: evalsFor(refFollowerWriter, size)}, nil
	case wlMixedRW:
		// 500-job evaluations (125 in the smoke test): one pre-filled, the
		// rest submitted by the agent as it goes.
		return plan{variants: variants / 2, evals: 1}, nil
	case wlEvalHeavy:
		// Jobs of about half a second; a run shorter than five seconds
		// shrinks them so that each family still finishes a few.
		return plan{heavy: true, scale: math.Min(1, math.Max(0.05, o.seconds.Seconds()/10))}, nil
	}
	return plan{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// drive runs one workload's load: it starts the closed-loop clients and
// the open-loop viewers, sleeps through the warm-up, snapshots the
// processes, sleeps through the measured window (or until every client
// has ended because the queue ran dry), snapshots again and raises stop,
// which ends the viewers; the clients end by themselves at until, which
// is the end of the window. It returns once all of them have, with the
// window's edges as snapshots and as offsets from origin.
func (w *world) drive(o runOpts, res *result, origin time.Time, clients []func(), viewers ...func(stop *atomic.Bool)) (a, b snap, from, to time.Duration) {
	var stop atomic.Bool
	var cwg, vwg sync.WaitGroup
	for _, c := range clients {
		cwg.Add(1)
		go func() { defer cwg.Done(); c() }()
	}
	for _, v := range viewers {
		vwg.Add(1)
		go func() { defer vwg.Done(); v(&stop) }()
	}
	clientsDone := make(chan struct{})
	go func() { cwg.Wait(); close(clientsDone) }()
	wait := func(d time.Duration) {
		select {
		case <-time.After(d):
		case <-clientsDone:
		}
	}
	wait(time.Until(origin.Add(o.warmup)))
	a = w.snap()
	wait(time.Until(o.until(origin)))
	b = w.snap()
	stop.Store(true)
	if got := b.at.Sub(a.at); got < o.seconds*9/10 {
		res.notes = append(res.notes, fmt.Sprintf("the queue ran dry after %.1fs of the %.0fs window; the metrics cover the shorter time", got.Seconds(), o.seconds.Seconds()))
	}
	<-clientsDone
	vwg.Wait()
	res.vals.set("hw.steal_share", stealShare(a, b), int(b.total-a.total))
	return a, b, a.at.Sub(origin), b.at.Sub(origin)
}

// until is when the clients of a run that started at origin stop.
func (o runOpts) until(origin time.Time) time.Time { return origin.Add(o.warmup + o.seconds) }

// workingOn returns the viewers' target on a pre-filled queue: the
// evaluation the clients are working on, which follows from how many
// jobs are done because the queue is FIFO.
func (w *world) workingOn(sh *shared) func() string {
	perEval := w.submitted / len(w.evals)
	return func() string {
		return w.evals[min(int(sh.done.Load())/perEval, len(w.evals)-1)]
	}
}

// tally is failed_share's two counts, both taken on the client side over
// the whole run: every call the load goroutines made through pkg/client
// and every viewer read, against those that returned an error (a refusal
// is one: the SDK turns an HTTP answer of 400 or above into an error) or,
// for a read, took over a second from its due time.
func tally(res *result, leds []*ledger, rls ...*readLog) {
	for _, l := range leds {
		res.attempted += l.calls
		res.failed += l.errors
	}
	for _, rl := range rls {
		res.attempted += rl.reads
		res.failed += rl.errors + rl.slow
	}
}

// loadMetrics derives the loadgen-side metrics shared by the three
// no-op workloads from the ledgers, for the window [from, to): the raw
// timings, and the two gated ratios of work to twin.
func loadMetrics(res *result, leds []*ledger, from, to time.Duration) (jobs, twinJobs int) {
	var claim, rtt, twin []*series
	// Throughput is summed over the clients, each while it was at it: a
	// client's jobs over the time its work turns took, its twin jobs over
	// the time they took.
	var workRate, twinRate float64
	for _, l := range leds {
		claim, rtt, twin = append(claim, &l.claim), append(rtt, &l.rtt), append(twin, &l.twin)
		n := 0
		for _, a := range l.acked {
			if a.end >= from && a.end < to {
				n++
			}
		}
		jobs += n
		if busy := sum(window(time.Second, from, to, &l.work)); busy > 0 {
			workRate += float64(n) / busy
		}
		tw := window(time.Second, from, to, &l.twinTurns)
		twinJobs += len(tw)
		if busy := sum(tw); busy > 0 {
			twinRate += float64(len(tw)) / busy
		}
	}
	r, t := window(time.Millisecond, from, to, rtt...), window(time.Millisecond, from, to, twin...)
	res.vals.set("job_rtt_x", quantile(r, 0.25)/quantile(t, 0.25), len(r))
	res.vals.set("jobs_per_s_x", workRate/twinRate, jobs)
	res.vals.set("jobs_per_s", workRate, jobs)
	res.vals.set("job_rtt_p50_ms", median(r), len(r))
	res.vals.set("job_rtt_p25_ms", quantile(r, 0.25), len(r))
	res.vals.set("agent.job_rtt_p99_ms", quantile(r, 0.99), len(r))
	res.vals.set("twin.job_p25_ms", quantile(t, 0.25), len(t))
	res.vals.set("twin.jobs_per_s", twinRate, twinJobs)
	c := window(time.Millisecond, from, to, claim...)
	res.vals.set("claim_p50_ms", median(c), len(c))
	return jobs, twinJobs
}

// readMetrics folds one viewer's log into the result.
func readMetrics(res *result, rl *readLog, from, to time.Duration, names map[string]string) {
	for stream, metric := range names {
		xs := window(time.Millisecond, from, to, rl.lat[stream])
		res.vals.set(metric, median(xs), len(xs))
	}
	late := window(time.Millisecond, from, to, &rl.late)
	res.vals.set("loadgen.reader_late_p99_ms", quantile(late, 0.99), len(late))
}

// statusStream is the viewer's EvaluationStatus stream on the evaluation
// being worked on.
func statusStream(c *client.Client, rate float64, current func() string, onStatus func(core.EvaluationStatus)) readKind {
	return readKind{name: "status", rate: rate, call: func() error {
		id := current()
		if id == "" {
			return errNotYet
		}
		st, err := c.EvaluationStatus(id)
		if err == nil && onStatus != nil {
			onStatus(st)
		}
		return err
	}}
}

// readerPhase spreads the viewer's streams by a seed-derived offset of a
// few milliseconds: the read order is an input, the rates are not.
func (e *env) readerPhase() time.Duration {
	return time.Duration(1+e.seed%7) * 3 * time.Millisecond
}

// fleetNoop: C in-process agents with a no-op runner work on a
// pre-filled queue on a durable leader, closed loop, alternating with
// twin jobs. Nothing else talks to the server inside the window, so the
// per-job counts are exact.
func (e *env) fleetNoop(w *world, o runOpts, res *result) ([]*ledger, error) {
	c := e.clients()
	res.notes = append(res.notes, fmt.Sprintf("closed loop, %d agents (C=min(nproc,4)), one connection each, %v of jobs then %v of twin jobs in turn; queue %d jobs", c, phaseWork, phaseTwin, w.submitted))
	origin := time.Now()
	leds := make([]*ledger, c)
	agents := make([]func(), c)
	for i := range leds {
		led := &ledger{origin: origin, until: o.until(origin)}
		leds[i] = led
		agents[i] = func() {
			ctl := &timedControl{Control: newClient(w.leader.url), led: led}
			runAgent(context.Background(), ctl, w.deployment[sysNoop], led, e.newTwinClient())
		}
	}
	a, b, from, to := w.drive(o, res, origin, agents)
	jobs, twinJobs := loadMetrics(res, leds, from, to)
	w.counterMetrics(a, b, jobs, twinJobs, res.vals)
	tally(res, leds)
	return leds, nil
}

// mixedRW: one agent goroutine loops {submit a 500-variant evaluation ->
// work it off}, alternating with twin jobs like every closed-loop client;
// one viewer goroutine reads the evaluation being worked on, open loop:
// status 20/s, job list 5/s, timeline+result of the newest finished job
// 5/s.
func (e *env) mixedRW(w *world, o runOpts, pl plan, res *result) ([]*ledger, error) {
	res.notes = append(res.notes, fmt.Sprintf("closed loop, 1 agent submitting and working off evaluations of %d jobs, %v of that then %v of twin jobs in turn; 1 viewer open loop: status 20/s, list 5/s, timeline+result 5/s", pl.variants, phaseWork, phaseTwin))
	origin := time.Now()
	var sh shared
	led := &ledger{origin: origin, until: o.until(origin)}
	sh.current.Store(&w.evals[0])
	current := func() string { return *sh.current.Load() }
	var submitErr error
	agent := func() {
		c := newClient(w.leader.url)
		ctl := &timedControl{Control: c, led: led, sh: &sh}
		tc := e.newTwinClient()
		// The pre-filled evaluation first, then one after the other until
		// the window ends.
		for runAgent(context.Background(), ctl, w.deployment[sysNoop], led, tc) {
			start := time.Now()
			id, err := w.submitWith(c, sysNoop)
			led.calls++
			if err != nil {
				led.errors++
				submitErr = err
				return
			}
			end := time.Now()
			led.submit.add(origin, start, end)
			led.work.add(origin, start, end)
			sh.current.Store(&id)
		}
	}
	var rl *readLog
	viewer := func(stop *atomic.Bool) {
		c := newClient(w.leader.url)
		kinds := []readKind{
			statusStream(c, 20, current, nil),
			{name: "list", rate: 5, call: func() error {
				jobs, err := c.EvaluationJobs(current())
				if err == nil && len(jobs) != pl.variants {
					return fmt.Errorf("listing has %d rows, want %d", len(jobs), pl.variants)
				}
				return err
			}},
			{name: "detail", rate: 5, call: func() error {
				id := sh.lastDone.Load()
				if id == nil {
					return errNotYet
				}
				if _, err := c.JobTimeline(*id); err != nil {
					return err
				}
				_, err := c.JobResult(*id)
				return err
			}},
		}
		rl = runReader(kinds, e.readerPhase(), origin, stop)
	}
	a, b, from, to := w.drive(o, res, origin, []func(){agent}, viewer)
	if submitErr != nil {
		return nil, submitErr
	}
	jobs, twinJobs := loadMetrics(res, []*ledger{led}, from, to)
	// Submissions are few, so every one of the run counts, warm-up
	// included.
	sub := window(time.Millisecond, 0, math.MaxInt64, &led.submit)
	res.vals.set("submit_jobs_per_s", float64(pl.variants)/(median(sub)/1000), len(sub))
	readMetrics(res, rl, from, to, map[string]string{"status": "status_read_p50_ms", "list": "list_read_p50_ms"})
	w.counterMetrics(a, b, jobs, twinJobs, res.vals)
	tally(res, []*ledger{led}, rl)
	return []*ledger{led}, nil
}

// shipLinger is the leader's repl.DefaultCoalesce: woken by a commit, a
// tail request lingers this long before it ships, so that a burst goes
// out as one chunk. It is a timer, so the read-your-write wait that ends
// every turn of follower_reads' writer hardly changes with the host's
// weather (its raw spread is 1-3 %), while the twin job does; a twin
// turn on follower_reads therefore ends in the same timer wait, or
// jobs_per_s_x would rise whenever the host gets slower (measured: ten-run
// spread 7-13 % without it). A later PR that shortens the linger shows as
// a gain, as it should.
const shipLinger = 2 * time.Millisecond

// followerReads: leader plus one -replicate-from follower. One writer
// goroutine claims and completes on the leader and at once reads the job
// back from the follower with its commit token, alternating with twin
// jobs; one viewer polls status on the follower at 20/s, open loop. With
// o.traced a third goroutine samples the follower's replication gauges
// at 10 Hz for the per-layer numbers; the end-to-end run has the two
// load goroutines only.
func (e *env) followerReads(w *world, o runOpts, res *result) ([]*ledger, error) {
	load := fmt.Sprintf("closed loop, 1 writer (claim, complete on leader; read-your-write GetJob on follower), %v of that then %v of twin jobs in turn; 1 viewer on the follower open loop at 20/s", phaseWork, phaseTwin)
	if o.traced {
		load += "; replication gauges sampled at 10 Hz"
	}
	res.notes = append(res.notes, fmt.Sprintf("%s; queue %d jobs", load, w.submitted))
	origin := time.Now()
	var sh shared
	led := &ledger{origin: origin, until: o.until(origin), twinLinger: shipLinger}
	violations := 0
	writer := func() {
		// Claims go straight to the leader; completions and the read
		// share one session-carrying client, so the read presents the
		// completion's commit token to the follower.
		claimer := &timedControl{Control: newClient(w.leader.url), led: led}
		session := newClient(w.foll.url, client.WithLeader(w.leader.url))
		completer := &timedControl{Control: session, led: led, sh: &sh}
		tc := e.newTwinClient()
		dep := w.deployment[sysNoop]
		for fails := 0; fails < 10; {
			start := time.Now()
			if !start.Before(led.until) {
				return
			}
			if led.twinTurn(tc, start) {
				continue
			}
			job, _, err := claimer.ClaimJob(dep)
			if err != nil {
				fails++
				continue
			}
			if job == nil {
				return
			}
			if err := completer.Complete(job.ID, []byte(`{"v":`+strconv.FormatInt(job.Params.Int("v", 0), 10)+`}`), nil); err != nil {
				fails++
				continue
			}
			acked := time.Now()
			led.rtt.add(origin, start, acked)
			got, err := session.GetJob(job.ID)
			led.calls++
			if err != nil {
				led.errors++
				fails++
				continue
			}
			end := time.Now()
			led.ryw.add(origin, acked, end)
			led.work.add(origin, start, end)
			if got.Status != core.StatusFinished {
				violations++
			}
		}
	}

	var rl *readLog
	viewer := func(stop *atomic.Bool) {
		rl = runReader([]readKind{statusStream(newClient(w.foll.url), 20, w.workingOn(&sh), nil)}, e.readerPhase(), origin, stop)
	}
	var lagBytes, staleMs []float64
	gauges := func(stop *atomic.Bool) { // the follower's replication gauges, sampled at 10 Hz
		c := newClient(w.foll.url)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for ; !stop.Load(); <-tick.C {
			if time.Since(origin) < o.warmup {
				continue
			}
			if text, err := c.MetricsText(); err == nil {
				m := parseProm(text)
				lagBytes = append(lagBytes, m["chronos_repl_lag_bytes"])
				staleMs = append(staleMs, m["chronos_repl_staleness_ms"])
			}
		}
	}
	viewers := []func(*atomic.Bool){viewer}
	if o.traced {
		viewers = append(viewers, gauges)
	}
	a, b, from, to := w.drive(o, res, origin, []func(){writer}, viewers...)
	jobs, twinJobs := loadMetrics(res, []*ledger{led}, from, to)
	ryw := window(time.Millisecond, from, to, &led.ryw)
	res.vals.set("ryw_read_p50_ms", median(ryw), len(ryw))
	readMetrics(res, rl, from, to, map[string]string{"status": "status_read_p50_ms"})
	res.vals.set("repl.lag_bytes_p50", median(lagBytes), len(lagBytes))
	res.vals.set("repl.staleness_ms_p50", median(staleMs), len(staleMs))
	w.counterMetrics(a, b, jobs, twinJobs, res.vals)
	tally(res, []*ledger{led}, rl)
	if violations > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d read-your-write answers did not show the acknowledged state", violations))
	}
	return []*ledger{led}, nil
}

// heavyPair is one simulator job and the compute twin run right after
// it (the one before it is the previous pair's).
type heavyPair struct {
	job     string
	twinMs  float64
	twinCPU time.Duration
}

// evalHeavy: one real chronos-agent subprocess per simulator family, one
// family after the other, each for half the window. The benchmark hands
// the agent one job at a time (a one-job evaluation), watches
// EvaluationStatus at 20/s until it has finished, runs the compute twin,
// and submits the next; results and timelines are read afterwards. The
// first job of each family is warm-up and is discarded.
func (e *env) evalHeavy(w *world, o runOpts, pl plan, res *result) error {
	res.notes = append(res.notes, fmt.Sprintf("closed loop, 1 chronos-agent subprocess per family in turn (threads=%d inside each job), one job at a time, each followed by the compute twin (%d goroutines); status poll open loop at 20/s; job scale %.2f", e.nproc, e.nproc, pl.scale))
	a := w.snap()
	viewer := newClient(w.leader.url)
	var rls []*readLog
	pairs := map[string][]heavyPair{}
	agentCPU := map[string]time.Duration{}
	for _, sys := range []string{sysMongo, sysTS} {
		// -report 200ms scales the agent's default (2 s reports on jobs of
		// minutes) down to these half-second jobs, so the periodic
		// reporter fires mid-job as it would on a real evaluation; -poll
		// 20ms makes the idle agent pick the next job up at once.
		args := []string{"-control", w.leader.url, "-deployment", w.deployment[sys], "-system", sys, "-report", "200ms", "-poll", "20ms"}
		if sys == sysMongo {
			args = append(args, "-write-latency=-1ns")
		}
		agentProc, err := e.procs.start(filepath.Join(e.bin, "chronos-agent"), filepath.Join(e.out, fmt.Sprintf("eval_heavy-%d-agent-%s.log", e.seq, sys)),
			"", []string{"CHRONOS_SESSION_SEED=" + strconv.FormatInt(e.seed, 10)}, args...)
		if err != nil {
			return err
		}
		var cpu0 time.Duration
		familyEnd := time.Now().Add(o.seconds / 2)
		for k := 0; k < 2 || time.Now().Before(familyEnd); k++ {
			if k == 1 {
				cpu0, _ = cpuTime(agentProc.pid()) // the warm-up job is behind us
			}
			if err := w.addExperiment(sys, fmt.Sprintf("%s-job-%d", sys, k), w.heavySettings(sys, pl.scale, e.seed*1000+int64(k))); err != nil {
				agentProc.kill()
				return err
			}
			ev, err := w.submit(sys)
			if err != nil {
				agentProc.kill()
				return err
			}
			var done, broken atomic.Bool
			var stop atomic.Bool
			var rl *readLog
			var rwg sync.WaitGroup
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				rl = runReader([]readKind{statusStream(viewer, 20, func() string { return ev }, func(st core.EvaluationStatus) {
					done.Store(st.Finished == st.Total)
					broken.Store(st.Failed+st.Aborted > 0)
				})}, e.readerPhase(), time.Now(), &stop)
			}()
			for deadline := time.Now().Add(60 * time.Second); !done.Load() && !broken.Load() && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			stop.Store(true)
			rwg.Wait()
			rls = append(rls, rl)
			if !done.Load() {
				agentProc.kill()
				return fmt.Errorf("%s: job %d did not finish (failed or aborted: %v); see %s", sys, k, broken.Load(), agentProc.log.Name())
			}
			c0 := selfCPU()
			tw := computeTwin(e.nproc, pl.scale)
			pairs[sys] = append(pairs[sys], heavyPair{job: ev, twinMs: ms(tw), twinCPU: selfCPU() - c0})
		}
		cpu1, _ := cpuTime(agentProc.pid())
		agentCPU[sys] = cpu1 - cpu0
		agentProc.signalAndWait(syscall.SIGTERM)
	}
	b := w.snap()

	// Everything below is read from what the agents uploaded.
	var (
		counted, measured int
		rttX, rateX, cpuX []float64 // one per family
		rates, twinRates  []float64
		familyRTT         []float64
		opsMetric         = map[string]string{sysMongo: "doc_ops_per_s", sysTS: "ts_ops_per_s"}
		layer             = map[string]string{sysMongo: "mongoagent", sysTS: "tsagent"}
		overheads         []float64
		phaseShare        []float64
		twinAll           []float64
	)
	for _, sys := range []string{sysMongo, sysTS} {
		var ops, rtts, ratios, twins, prep, exec, bytes []float64
		var twinCPU time.Duration
		for k, pr := range pairs[sys] {
			if k == 0 {
				continue // warm-up job
			}
			measured++
			// The job ran between two twins: its yardstick is their mean,
			// which follows a change of weather in the middle of the job.
			before := pairs[sys][k-1]
			pr.twinMs, pr.twinCPU = (before.twinMs+pr.twinMs)/2, (before.twinCPU+pr.twinCPU)/2
			jobs, err := w.admin.EvaluationJobs(pr.job)
			if err != nil || len(jobs) != 1 {
				res.problems = append(res.problems, fmt.Sprintf("evaluation %s: %d jobs, %v", pr.job, len(jobs), err))
				continue
			}
			j := jobs[0]
			doc, size, err := resultDoc(w.admin, j.ID)
			if err != nil {
				res.problems = append(res.problems, err.Error())
				continue
			}
			ph := phaseDurations(doc)
			n, _ := doc["operations"].(float64)
			if errs, _ := doc["errors"].(float64); errs != 0 || n <= 0 || ph["execute"] <= 0 {
				res.problems = append(res.problems, fmt.Sprintf("job %s (%s): operations=%v errors=%v execute=%v", j.ID, sys, n, errs, ph["execute"]))
				continue
			}
			claimed, done, err := claimedFinished(w.admin, j.ID)
			if err != nil {
				res.problems = append(res.problems, err.Error())
				continue
			}
			var phases time.Duration
			for _, d := range ph {
				phases += d
			}
			span := done.Sub(claimed)
			ops = append(ops, n/ph["execute"].Seconds())
			rtts, twins = append(rtts, ms(span)), append(twins, pr.twinMs)
			ratios = append(ratios, ms(span)/pr.twinMs)
			twinCPU += pr.twinCPU
			prep, exec = append(prep, ms(ph["prepare"])), append(exec, ms(ph["execute"]))
			bytes = append(bytes, float64(size))
			overheads = append(overheads, ms(span-phases))
			phaseShare = append(phaseShare, float64(phases)/float64(span))
			counted++
		}
		if len(rtts) == 0 {
			continue
		}
		rttX = append(rttX, median(ratios))
		rateX = append(rateX, sum(twins)/sum(rtts))
		rates, twinRates = append(rates, 1000*float64(len(rtts))/sum(rtts)), append(twinRates, 1000*float64(len(twins))/sum(twins))
		cpuX = append(cpuX, float64(agentCPU[sys])/float64(twinCPU))
		familyRTT = append(familyRTT, median(rtts))
		twinAll = append(twinAll, twins...)
		res.vals.set(opsMetric[sys], median(ops), len(ops))
		res.vals.set(layer[sys]+".prepare_ms_p50", median(prep), len(prep))
		res.vals.set(layer[sys]+".execute_ms_p50", median(exec), len(exec))
		res.vals.set(layer[sys]+".result_bytes_p50", median(bytes), len(bytes))
		res.vals.set("agent.job_rtt_p99_ms", math.Max(res.vals["agent.job_rtt_p99_ms"].V, quantile(rtts, 0.99)), counted)
	}
	// The two families' jobs differ in length, so a median over all jobs
	// would flip between the two clusters; the mean of the two families'
	// numbers does not.
	if len(rttX) == 2 {
		res.vals.set("job_rtt_x", mean(rttX), counted)
		res.vals.set("jobs_per_s_x", mean(rateX), counted)
		res.vals.set("cpu_per_job_x", mean(cpuX), counted)
		res.vals.set("jobs_per_s", mean(rates), counted)
		res.vals.set("twin.jobs_per_s", mean(twinRates), counted)
		res.vals.set("job_rtt_p50_ms", mean(familyRTT), counted)
		res.vals.set("twin.job_p25_ms", quantile(twinAll, 0.25), len(twinAll))
	}
	res.vals.set("agent.overhead_p50_ms", median(overheads), len(overheads))
	if len(phaseShare) > 0 {
		share := median(phaseShare)
		verdict := "ok"
		if share <= 0.95 {
			verdict = "HARNESS ERROR: the workload does not stress what it says"
		}
		res.notes = append(res.notes, fmt.Sprintf("check: runner phases are %.1f%% of claimed->finished time (want > 95%%): %s", 100*share, verdict))
	}
	// The poll only watches for the end of each job; of its timings the
	// report keeps the generator's lateness. The agent is a process of
	// its own, so its calls are counted by their outcome: a job is one
	// operation, failed when its result is missing or wrong.
	var late series
	for _, rl := range rls {
		// Each poll has its own clock origin; only the durations matter
		// here, so keep every sample.
		late.s = append(late.s, rl.late.s...)
	}
	lates := window(time.Millisecond, 0, math.MaxInt64, &late)
	res.vals.set("loadgen.reader_late_p99_ms", quantile(lates, 0.99), len(lates))
	w.counterMetrics(a, b, measured+2, 0, res.vals) // the snapshots span the warm-up jobs too
	res.vals.set("hw.steal_share", stealShare(a, b), int(b.total-a.total))
	tally(res, nil, rls...)
	res.attempted, res.failed = res.attempted+measured, res.failed+measured-counted
	return nil
}

// phaseDurations reads the agent library's standard "phases" list out of
// a result document.
func phaseDurations(doc map[string]any) map[string]time.Duration {
	out := map[string]time.Duration{}
	list, _ := doc["phases"].([]any)
	for _, p := range list {
		m, _ := p.(map[string]any)
		name, _ := m["phase"].(string)
		ns, _ := m["durationNs"].(float64)
		out[name] = time.Duration(ns)
	}
	return out
}

// claimedFinished returns the server's timestamps of a job's claimed and
// finished timeline events.
func claimedFinished(c *client.Client, jobID string) (claimed, finished time.Time, err error) {
	evs, err := c.JobTimeline(jobID)
	if err != nil {
		return claimed, finished, fmt.Errorf("timeline of %s: %v", jobID, err)
	}
	for _, ev := range evs {
		switch ev.Kind {
		case core.EventClaimed:
			claimed = ev.Time
		case core.EventFinished:
			finished = ev.Time
		}
	}
	if claimed.IsZero() || finished.IsZero() {
		return claimed, finished, fmt.Errorf("timeline of %s lacks claimed/finished events", jobID)
	}
	return claimed, finished, nil
}
