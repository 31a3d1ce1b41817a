//go:build linux

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/internal/rest"
)

// traceHeader is the id pkg/client mints per HTTP attempt; it joins the
// client-side round-trip span with the server-side handler span.
const traceHeader = "X-Chronos-Trace"

// span is one timed interval at a layer boundary. Spans of one job share
// Job; Parent is the span that caused this one (0 for a job span, and
// for handler spans, which are joined to their round trip by Trace).
type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Job    *string `json:"job,omitempty"`
	Trace  string  `json:"trace,omitempty"`
	Start  int64   `json:"startNs"` // since the tracer's origin
	End    int64   `json:"endNs"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	origin time.Time
	next   atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func (t *tracer) id() uint64 { return t.next.Add(1) }

func (t *tracer) add(s span, start, end time.Time) {
	s.Start, s.End = int64(start.Sub(t.origin)), int64(end.Sub(t.origin))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedAgent is the per-agent state the three client-side wrappers
// share: the job being run and the Control call in flight. The agent
// issues its calls one at a time, so "the call in flight" is well
// defined for the round tripper below it.
type tracedAgent struct {
	tr   *tracer
	mu   sync.Mutex
	job  uint64  // id reserved for the current job span
	ref  *string // the job id, filled in when the claim returns
	call uint64  // Control call in flight
}

func (ta *tracedAgent) begin() {
	ta.mu.Lock()
	ta.job, ta.ref = ta.tr.id(), new(string)
	ta.mu.Unlock()
}

func (ta *tracedAgent) current() (job uint64, ref *string, call uint64) {
	ta.mu.Lock()
	defer ta.mu.Unlock()
	return ta.job, ta.ref, ta.call
}

// tracedControl decorates agent.Control: one span per call, parent the
// job span.
type tracedControl struct {
	agent.Control
	ta *tracedAgent
}

func (c tracedControl) timed(name string, fn func()) {
	id := c.ta.tr.id()
	c.ta.mu.Lock()
	c.ta.call = id
	job, ref := c.ta.job, c.ta.ref
	c.ta.mu.Unlock()
	start := time.Now()
	fn()
	c.ta.tr.add(span{ID: id, Parent: job, Name: "control." + name, Job: ref}, start, time.Now())
}

func (c tracedControl) ClaimJob(dep string) (job *core.Job, defs []params.Definition, err error) {
	c.timed("ClaimJob", func() {
		job, defs, err = c.Control.ClaimJob(dep)
		if job != nil {
			_, ref, _ := c.ta.current()
			*ref = job.ID
		}
	})
	return
}

func (c tracedControl) Progress(id string, pct int64) (st core.JobStatus, err error) {
	c.timed("Progress", func() { st, err = c.Control.Progress(id, pct) })
	return
}

func (c tracedControl) AppendLog(id, text string) (err error) {
	c.timed("AppendLog", func() { err = c.Control.AppendLog(id, text) })
	return
}

func (c tracedControl) Complete(id string, res, archive []byte) (err error) {
	c.timed("Complete", func() { err = c.Control.Complete(id, res, archive) })
	return
}

// tracedTransport is the http.RoundTripper handed to pkg/client through
// WithHTTPClient: one span per HTTP attempt, parent the Control call.
// The span ends when the response headers arrive; reading the (small)
// body is charged to the client's self time.
type tracedTransport struct {
	base http.RoundTripper
	ta   *tracedAgent
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	_, ref, call := t.ta.current()
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	t.ta.tr.add(span{ID: t.ta.tr.id(), Parent: call, Name: "http.roundtrip", Job: ref, Trace: req.Header.Get(traceHeader)}, start, time.Now())
	return resp, err
}

// tracedHandler is the middleware around rest.Server.Handler(): one span
// per request, joined to its round trip by the trace header.
func tracedHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		tr.add(span{ID: tr.id(), Name: "rest.handler", Trace: r.Header.Get(traceHeader)}, start, time.Now())
	})
}

// tracedRunner decorates the Runner phases, parent the job span.
type tracedRunner struct {
	agent.Runner
	ta *tracedAgent
}

func (r tracedRunner) phase(name string, fn func() error) error {
	job, ref, _ := r.ta.current()
	start := time.Now()
	err := fn()
	r.ta.tr.add(span{ID: r.ta.tr.id(), Parent: job, Name: "runner." + name, Job: ref}, start, time.Now())
	return err
}

func (r tracedRunner) Prepare(rc *agent.RunContext) error {
	return r.phase("prepare", func() error { return r.Runner.Prepare(rc) })
}
func (r tracedRunner) WarmUp(rc *agent.RunContext) error {
	return r.phase("warmup", func() error { return r.Runner.WarmUp(rc) })
}
func (r tracedRunner) Execute(rc *agent.RunContext) error {
	return r.phase("execute", func() error { return r.Runner.Execute(rc) })
}
func (r tracedRunner) Analyze(rc *agent.RunContext) (res map[string]any, err error) {
	err = r.phase("analyze", func() error { res, err = r.Runner.Analyze(rc); return err })
	return
}
func (r tracedRunner) Clean(rc *agent.RunContext) error {
	return r.phase("clean", func() error { return r.Runner.Clean(rc) })
}

// stack is the same server the binaries run, assembled in-process:
// leader store with its defaults, core service with its watchdog, REST
// server on a loopback listener. The access log goes to a file, as the
// child's stderr does. (The metrics registry is left off: the span and
// ladder numbers are of the layers themselves.)
type stack struct {
	url    string
	db     *relstore.DB
	svc    *core.Service
	rest   *rest.Server
	closer func()
}

func (e *env) openStack(name string, opts *relstore.Options, tr *tracer) (*stack, error) {
	dir := filepath.Join(e.work, name)
	db, err := relstore.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	svc, err := core.NewService(db, nil)
	if err != nil {
		db.Close()
		return nil, err
	}
	logf, err := os.Create(filepath.Join(e.out, name+".log"))
	if err != nil {
		db.Close()
		return nil, err
	}
	srv := rest.NewServer(svc)
	srv.Logger = log.New(logf, "", log.LstdFlags)
	h := srv.Handler()
	if tr != nil {
		h = tracedHandler(tr, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		logf.Close()
		db.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	svc.StartWatchdog(ctx, 10*time.Second)
	hs := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() { hs.Serve(ln); close(served) }() //nolint:errcheck // ErrServerClosed on shutdown
	return &stack{url: "http://" + ln.Addr().String(), db: db, svc: svc, rest: srv, closer: func() {
		cancel()
		hs.Close()
		<-served
		db.Close()
		logf.Close()
		os.RemoveAll(dir)
	}}, nil
}

// tracedRun runs fleet_noop's shape with one agent against the
// in-process stack twice — wrappers off, wrappers on — then the ladder.
func (e *env) tracedRun(each time.Duration, rungOps int) (values, []string, error) {
	vals := values{}
	var notes []string
	rate := map[bool]float64{}
	var tr *tracer
	for _, on := range []bool{false, true} {
		var t *tracer
		name := "traced-off"
		if on {
			t, name = &tracer{origin: time.Now()}, "traced-on"
			tr = t
		}
		jobs, wall, err := e.tracedPass(name, each, t)
		if err != nil {
			return nil, nil, err
		}
		rate[on] = float64(jobs) / wall.Seconds()
	}
	vals.set("trace.overhead_share", (rate[false]-rate[true])/rate[false], int(rate[false]*each.Seconds()))
	notes = append(notes, fmt.Sprintf("one agent, %.1fs per pass: %.1f jobs/s with wrappers off, %.1f with wrappers on", each.Seconds(), rate[false], rate[true]))
	if err := tr.writeJSONL(filepath.Join(e.out, "spans.jsonl")); err != nil {
		return nil, nil, err
	}
	notes = append(notes, spanMetrics(tr.spans, vals)...)

	lv, ln, err := e.ladder(rungOps)
	if err != nil {
		return nil, nil, err
	}
	vals.merge(lv)
	return vals, append(notes, ln...), nil
}

// tracedPass seeds a fresh in-process stack and lets one agent drain its
// queue for d (after a short discarded warm-up). With t nil every
// wrapper is off.
func (e *env) tracedPass(name string, d time.Duration, t *tracer) (jobs int, wall time.Duration, err error) {
	st, err := e.openStack(name, nil, t)
	if err != nil {
		return 0, 0, err
	}
	defer st.closer()
	warm := min(time.Second, d/5)
	w := &world{env: e, admin: newClient(st.url), system: map[string]string{}, deployment: map[string]string{}, experiment: map[string]string{}}
	if err := w.seedEntities(plan{variants: 1000, evals: int(math.Ceil((d + warm).Seconds() * 600 / 1000))}); err != nil {
		return 0, 0, err
	}
	a := &agent.Agent{DeploymentID: w.deployment[sysNoop]}
	ta := &tracedAgent{tr: t}
	if t == nil {
		a.Control = newClient(st.url)
		a.Factory = func() agent.Runner { return noopRunner{} }
	} else {
		base := &http.Transport{MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}
		a.Control = tracedControl{newClientWith(tracedTransport{base, ta}, st.url), ta}
		a.Factory = func() agent.Runner { return tracedRunner{noopRunner{}, ta} }
	}
	start := time.Now()
	var measuredFrom time.Time
	for {
		now := time.Now()
		if measuredFrom.IsZero() && now.Sub(start) >= warm {
			measuredFrom, jobs = now, 0
		}
		if now.Sub(start) >= warm+d {
			return jobs, now.Sub(measuredFrom), nil
		}
		if t != nil {
			ta.begin()
		}
		t0 := time.Now()
		worked, err := a.RunOnce(context.Background())
		if err != nil {
			return 0, 0, err
		}
		if !worked {
			if measuredFrom.IsZero() {
				return 0, 0, fmt.Errorf("%s: queue ran dry during warm-up", name)
			}
			return jobs, time.Since(measuredFrom), nil
		}
		if t != nil {
			job, ref, _ := ta.current()
			t.add(span{ID: job, Name: "agent.job", Job: ref}, t0, time.Now())
		}
		jobs++
	}
}

// spanMetrics computes the span-sourced metrics. A layer's self time is
// its span's duration minus the part its child spans cover; here child
// spans never overlap each other (the agent is sequential), so covered
// time is the sum of the children.
func spanMetrics(spans []span, vals values) (notes []string) {
	handlerByTrace := map[string]span{}
	for _, s := range spans {
		if s.Name == "rest.handler" && s.Trace != "" {
			handlerByTrace[s.Trace] = s
		}
	}
	childSum := map[uint64]time.Duration{} // parent id -> covered time
	var (
		jobs, calls, attempts, joined int
		jobTime, phaseTime            time.Duration
		agentSelf, clientSelf         time.Duration
		transport, handler            time.Duration
	)
	for _, s := range spans {
		if s.Job == nil || *s.Job == "" {
			continue // an empty claim, or set-up traffic: not part of a job
		}
		switch {
		case s.Name == "http.roundtrip":
			childSum[s.Parent] += s.dur()
			attempts++
			if h, ok := handlerByTrace[s.Trace]; ok {
				joined++
				transport += s.dur() - h.dur()
				handler += h.dur()
			}
		case s.Name != "agent.job":
			childSum[s.Parent] += s.dur()
			if strings.HasPrefix(s.Name, "runner.") {
				phaseTime += s.dur()
			}
		}
	}
	for _, s := range spans {
		if s.Job == nil || *s.Job == "" {
			continue
		}
		switch {
		case s.Name == "agent.job":
			jobs++
			jobTime += s.dur()
			agentSelf += s.dur() - childSum[s.ID]
		case strings.HasPrefix(s.Name, "control."):
			calls++
			clientSelf += s.dur() - childSum[s.ID]
		}
	}
	if jobs == 0 || calls == 0 || joined == 0 {
		return []string{"HARNESS ERROR: the traced pass recorded no complete job"}
	}
	vals.set("agent.calls_per_job", float64(calls)/float64(jobs), jobs)
	vals.set("agent.self_us_per_job", us(agentSelf)/float64(jobs), jobs)
	vals.set("client.self_us_per_call", us(clientSelf)/float64(calls), calls)
	vals.set("client.transport_us_per_call", us(transport)/float64(joined), joined)
	vals.set("client.attempts_per_call", float64(attempts)/float64(calls), calls)
	vals.set("rest.busy_us_per_job", us(handler)/float64(jobs), joined)
	share := float64(phaseTime) / float64(jobTime)
	verdict := "ok"
	if share >= 0.10 {
		verdict = "HARNESS ERROR: the workload does not stress what it says"
	}
	return []string{fmt.Sprintf("check: runner phases are %.2f%% of the job round trip (want < 10%%): %s; %d spans in spans.jsonl", 100*share, verdict, len(spans))}
}
