package experiments

import (
	"fmt"
	"sync"
	"time"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/mongoagent"
	"chronos/internal/params"
)

// syntheticRunner is a minimal evaluation client used by the workflow and
// reliability experiments: it simulates work with sleeps and can be
// scripted to fail the first N attempts of a job.
type syntheticRunner struct {
	workDuration time.Duration
	// failFirst maps job id -> number of attempts that should fail.
	failFirst map[string]int
	mu        *sync.Mutex
	attempts  map[string]int
}

// newSyntheticFactory builds a factory sharing the failure script.
func newSyntheticFactory(work time.Duration, failFirst map[string]int) func() agent.Runner {
	mu := &sync.Mutex{}
	attempts := map[string]int{}
	return func() agent.Runner {
		return &syntheticRunner{
			workDuration: work,
			failFirst:    failFirst,
			mu:           mu,
			attempts:     attempts,
		}
	}
}

func (r *syntheticRunner) Prepare(rc *agent.RunContext) error {
	rc.Logf("synthetic prepare for %s", rc.Job.Label())
	return nil
}

func (r *syntheticRunner) WarmUp(rc *agent.RunContext) error { return nil }

func (r *syntheticRunner) Execute(rc *agent.RunContext) error {
	if r.failFirst != nil {
		r.mu.Lock()
		r.attempts[rc.Job.ID]++
		n := r.attempts[rc.Job.ID]
		budget := r.failFirst[rc.Job.ID]
		r.mu.Unlock()
		if n <= budget {
			return fmt.Errorf("scripted failure (attempt %d/%d)", n, budget)
		}
	}
	steps := 10
	for i := 1; i <= steps; i++ {
		if rc.Err() != nil {
			return rc.Err()
		}
		time.Sleep(r.workDuration / time.Duration(steps))
		rc.SetProgress(int64(i * 100 / steps))
	}
	return nil
}

func (r *syntheticRunner) Analyze(rc *agent.RunContext) (map[string]any, error) {
	return map[string]any{"throughput": 1000.0, "work_ms": r.workDuration.Milliseconds()}, nil
}

func (r *syntheticRunner) Clean(rc *agent.RunContext) error { return nil }

// E2SystemRegistration reproduces Fig. 2: registering an SuE with every
// parameter type and its result visualisation, entirely through the
// public service API, then reading the configuration back.
func E2SystemRegistration() (*Report, error) {
	rep := newReport("E2", "System configuration workflow (Fig. 2)")
	tb, err := newTestbed()
	if err != nil {
		return nil, err
	}
	defer tb.close()
	sys, _, err := tb.register(mongoagent.SystemName)
	if err != nil {
		return nil, err
	}
	got, err := tb.svc.GetSystem(sys.ID)
	if err != nil {
		return nil, err
	}
	rep.Printf("registered system %s (%s)", got.Name, got.ID)
	rep.Printf("%-14s %-10s %-28s %s", "parameter", "type", "constraints", "default")
	typesSeen := map[params.Type]bool{}
	for _, d := range got.Parameters {
		constraints := ""
		if len(d.Options) > 0 {
			constraints = fmt.Sprintf("options=%v", d.Options)
		}
		if d.Type == params.TypeInterval {
			constraints = fmt.Sprintf("[%v, %v]", d.Min, d.Max)
		}
		if len(d.RatioParts) > 0 {
			constraints = fmt.Sprintf("parts=%v", d.RatioParts)
		}
		rep.Printf("%-14s %-10s %-28s %s", d.Name, d.Type, constraints, d.Default)
		typesSeen[d.Type] = true
	}
	for _, dg := range got.Diagrams {
		rep.Printf("diagram: %-6s %q metric=%s x=%s series=%s",
			dg.Type, dg.Title, dg.Metric, dg.XParam, dg.SeriesParam)
	}
	rep.Data["system"] = got
	rep.Data["typesSeen"] = typesSeen
	return rep, nil
}

// E3ParamSpace reproduces Fig. 3a: defining an experiment and expanding
// its parameter space into jobs, verifying cardinality arithmetic.
func E3ParamSpace() (*Report, error) {
	rep := newReport("E3", "Experiment creation and parameter-space expansion (Fig. 3a)")
	tb, err := newTestbed()
	if err != nil {
		return nil, err
	}
	defer tb.close()
	sys, _, err := tb.register(mongoagent.SystemName)
	if err != nil {
		return nil, err
	}
	cases := []struct {
		name     string
		settings map[string][]params.Value
		want     int
	}{
		{"single job (all defaults)", nil, 1},
		{"2 engines", map[string][]params.Value{
			"engine": {params.String_("wiredtiger"), params.String_("mmapv1")},
		}, 2},
		{"2 engines x 4 threads", map[string][]params.Value{
			"engine":  {params.String_("wiredtiger"), params.String_("mmapv1")},
			"threads": {params.Int(1), params.Int(2), params.Int(4), params.Int(8)},
		}, 8},
		{"2 engines x 4 threads x 3 mixes", map[string][]params.Value{
			"engine":  {params.String_("wiredtiger"), params.String_("mmapv1")},
			"threads": {params.Int(1), params.Int(2), params.Int(4), params.Int(8)},
			"mix":     {params.Ratio(50, 50), params.Ratio(95, 5), params.Ratio(100, 0)},
		}, 24},
	}
	allMatch := true
	for _, c := range cases {
		exp, err := tb.svc.CreateExperiment(tb.projectID, sys.ID, c.name, "", c.settings, 0)
		if err != nil {
			return nil, err
		}
		_, jobs, err := tb.svc.CreateEvaluation(exp.ID)
		if err != nil {
			return nil, err
		}
		ok := len(jobs) == c.want
		allMatch = allMatch && ok
		rep.Printf("%-35s -> %2d jobs (want %2d) %v", c.name, len(jobs), c.want, okMark(ok))
		if len(jobs) > 0 {
			rep.Printf("    first job: %s", jobs[0].Label())
		}
	}
	rep.Data["allMatch"] = allMatch
	return rep, nil
}

// E5JobLifecycle reproduces Fig. 3c: the running-job detail view —
// status, progress, log stream, timeline, abort of a running job and
// re-schedule of a failed one.
func E5JobLifecycle() (*Report, error) {
	rep := newReport("E5", "Job lifecycle: progress, logs, timeline, abort, re-schedule (Fig. 3c)")
	tb, err := newTestbed()
	if err != nil {
		return nil, err
	}
	defer tb.close()
	sys, dep, err := tb.register(mongoagent.SystemName)
	if err != nil {
		return nil, err
	}
	exp, err := tb.svc.CreateExperiment(tb.projectID, sys.ID, "lifecycle", "",
		map[string][]params.Value{"threads": {params.Int(1), params.Int(2), params.Int(4)}}, 1)
	if err != nil {
		return nil, err
	}
	_, jobs, err := tb.svc.CreateEvaluation(exp.ID)
	if err != nil {
		return nil, err
	}

	// Job 1: full happy path with streaming progress and logs.
	j1, ok, err := tb.svc.ClaimJob(dep.ID)
	if err != nil || !ok {
		return nil, fmt.Errorf("claim 1: %v %v", ok, err)
	}
	for _, pct := range []int64{20, 60, 100} {
		if _, err := tb.svc.Progress(j1.ID, pct); err != nil {
			return nil, err
		}
		if err := tb.svc.AppendJobLog(j1.ID, fmt.Sprintf("progress %d%%\n", pct)); err != nil {
			return nil, err
		}
	}
	if err := tb.svc.CompleteJob(j1.ID, []byte(`{"throughput": 1}`), nil); err != nil {
		return nil, err
	}

	// Job 2: abort while running; the agent-side status reflects it.
	j2, ok, err := tb.svc.ClaimJob(dep.ID)
	if err != nil || !ok {
		return nil, fmt.Errorf("claim 2: %v %v", ok, err)
	}
	if err := tb.svc.AbortJob(j2.ID); err != nil {
		return nil, err
	}
	stAfterAbort, err := tb.svc.Progress(j2.ID, 50)
	if err != nil {
		return nil, err
	}

	// Job 3: failure then manual re-schedule then success.
	j3, ok, err := tb.svc.ClaimJob(dep.ID)
	if err != nil || !ok {
		return nil, fmt.Errorf("claim 3: %v %v", ok, err)
	}
	if err := tb.svc.FailJob(j3.ID, "simulated crash", ""); err != nil {
		return nil, err
	}
	if err := tb.svc.RescheduleJob(j3.ID); err != nil {
		return nil, err
	}
	j3b, ok, err := tb.svc.ClaimJob(dep.ID)
	if err != nil || !ok {
		return nil, fmt.Errorf("re-claim 3: %v %v", ok, err)
	}
	if err := tb.svc.CompleteJob(j3b.ID, []byte(`{"throughput": 2}`), nil); err != nil {
		return nil, err
	}

	// Render the three timelines like the UI's timeline widget.
	finalStates := map[string]core.JobStatus{}
	for i, id := range []string{j1.ID, j2.ID, j3.ID} {
		j, err := tb.svc.GetJob(id)
		if err != nil {
			return nil, err
		}
		finalStates[id] = j.Status
		rep.Printf("job %d (%s): status=%s progress=%d%% attempts=%d",
			i+1, j.Label(), j.Status, j.Progress, j.Attempts)
		tl, err := tb.svc.JobTimeline(id)
		if err != nil {
			return nil, err
		}
		for _, e := range tl {
			rep.Printf("    %-14s %s", e.Kind, e.Message)
		}
		logs, _ := tb.svc.JobLogs(id)
		if len(logs) > 0 {
			rep.Printf("    log: %d chunks", len(logs))
		}
	}
	rep.Data["job1"] = string(finalStates[j1.ID])
	rep.Data["job2"] = string(finalStates[j2.ID])
	rep.Data["job3"] = string(finalStates[j3.ID])
	rep.Data["statusAfterAbort"] = string(stAfterAbort)
	_ = jobs
	return rep, nil
}

func okMark(ok bool) string {
	if ok {
		return "ok"
	}
	return "MISMATCH"
}
