package experiments

import (
	"fmt"
	"time"

	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/params"
	"chronos/internal/relstore"
)

// E4ParallelDeployments reproduces Fig. 3b's scheduling behaviour:
// "the execution of jobs can be parallelized if there are multiple
// identical deployments of the SuE". One evaluation's jobs run first on a
// single deployment, then on four identical deployments; the wall-clock
// ratio shows the parallel speedup. Jobs are I/O-bound synthetic work, so
// the speedup manifests even on a single CPU core.
func E4ParallelDeployments(cfg Config) (*Report, error) {
	rep := newReport("E4", "Parallel identical deployments (Fig. 3b)")
	const jobCount = 8
	work := 150 * time.Millisecond

	run := func(deployments int) (time.Duration, error) {
		tb, err := newTestbed()
		if err != nil {
			return 0, err
		}
		defer tb.close()
		defs := []params.Definition{
			{Name: "idx", Type: params.TypeInterval, Min: 1, Max: 64, Default: params.Int(1)},
		}
		sys, err := tb.svc.RegisterSystem("synthetic-sue", "", defs, nil)
		if err != nil {
			return 0, err
		}
		var deps []*core.Deployment
		for i := 0; i < deployments; i++ {
			d, err := tb.svc.CreateDeployment(sys.ID, fmt.Sprintf("node-%d", i), "cluster", "1")
			if err != nil {
				return 0, err
			}
			deps = append(deps, d)
		}
		variants := make([]params.Value, jobCount)
		for i := range variants {
			variants[i] = params.Int(int64(i + 1))
		}
		exp, err := tb.svc.CreateExperiment(tb.projectID, sys.ID, "parallel", "",
			map[string][]params.Value{"idx": variants}, 0)
		if err != nil {
			return 0, err
		}
		ev, _, err := tb.svc.CreateEvaluation(exp.ID)
		if err != nil {
			return 0, err
		}
		elapsed, err := tb.runAgents(deps, deployments, newSyntheticFactory(work, nil))
		if err != nil {
			return 0, err
		}
		st, err := tb.svc.EvaluationStatusOf(ev.ID)
		if err != nil {
			return 0, err
		}
		if !st.Done() || st.Finished != jobCount {
			return 0, fmt.Errorf("evaluation incomplete: %+v", st)
		}
		return elapsed, nil
	}

	serial, err := run(1)
	if err != nil {
		return nil, err
	}
	parallel, err := run(4)
	if err != nil {
		return nil, err
	}
	speedup := float64(serial) / float64(parallel)
	rep.Printf("%d jobs x %v work each", jobCount, work)
	rep.Printf("%-24s %v", "1 deployment:", serial.Round(time.Millisecond))
	rep.Printf("%-24s %v", "4 identical deployments:", parallel.Round(time.Millisecond))
	rep.Printf("%-24s %.2fx", "speedup:", speedup)
	rep.Data["serial"] = serial
	rep.Data["parallel"] = parallel
	rep.Data["speedup"] = speedup
	return rep, nil
}

// E8FailureRecovery exercises requirement (iii): automated failure
// handling — scripted job failures consume the attempt budget and
// auto-reschedule to eventual success; a vanished agent is detected by
// the heartbeat watchdog; and the archive (requirement iv) captures the
// full history.
func E8FailureRecovery(cfg Config) (*Report, error) {
	rep := newReport("E8", "Failure handling, watchdog recovery, archiving")
	clock := metrics.NewManualClock(time.Date(2020, 3, 30, 9, 0, 0, 0, time.UTC))
	// Manual clock: heartbeat timing is driven explicitly below.
	svc, err := core.NewService(relstore.OpenMemory(), clock.Now)
	if err != nil {
		return nil, err
	}
	svc.HeartbeatTimeout = 30 * time.Second
	u, err := svc.CreateUser("ops", core.RoleAdmin)
	if err != nil {
		return nil, err
	}
	proj, err := svc.CreateProject("reliability", "", u.ID, nil)
	if err != nil {
		return nil, err
	}
	defs := []params.Definition{
		{Name: "idx", Type: params.TypeInterval, Min: 1, Max: 8, Default: params.Int(1)},
	}
	sys, err := svc.RegisterSystem("synthetic-sue", "", defs, nil)
	if err != nil {
		return nil, err
	}
	dep, err := svc.CreateDeployment(sys.ID, "node", "", "")
	if err != nil {
		return nil, err
	}
	exp, err := svc.CreateExperiment(proj.ID, sys.ID, "flaky", "",
		map[string][]params.Value{"idx": {params.Int(1), params.Int(2)}}, 3)
	if err != nil {
		return nil, err
	}
	ev, jobs, err := svc.CreateEvaluation(exp.ID)
	if err != nil {
		return nil, err
	}

	// Part 1: job 0 fails twice (scripted), then succeeds on attempt 3
	// within the budget — all through the service API, like an agent.
	flakyID := jobs[0].ID
	for attempt := 1; attempt <= 3; attempt++ {
		j, ok, err := svc.ClaimJob(dep.ID)
		if err != nil || !ok {
			return nil, fmt.Errorf("claim attempt %d: %v %v", attempt, ok, err)
		}
		if j.ID != flakyID {
			return nil, fmt.Errorf("expected retry of %s, got %s", flakyID, j.ID)
		}
		if attempt < 3 {
			if err := svc.FailJob(j.ID, fmt.Sprintf("flaky crash #%d", attempt)); err != nil {
				return nil, err
			}
			rep.Printf("attempt %d: job failed -> auto-rescheduled", attempt)
			continue
		}
		if err := svc.CompleteJob(j.ID, []byte(`{"throughput": 3}`), nil); err != nil {
			return nil, err
		}
		rep.Printf("attempt %d: job finished", attempt)
	}
	j0, err := svc.GetJob(flakyID)
	if err != nil {
		return nil, err
	}
	rep.Data["flakyFinal"] = string(j0.Status)
	rep.Data["flakyAttempts"] = j0.Attempts

	// Part 2: job 1's agent claims it and disappears; the watchdog
	// detects the lost heartbeat and recovers the job.
	j1, ok, err := svc.ClaimJob(dep.ID)
	if err != nil || !ok {
		return nil, fmt.Errorf("claim for watchdog: %v %v", ok, err)
	}
	clock.Advance(31 * time.Second)
	failed, err := svc.CheckHeartbeats()
	if err != nil {
		return nil, err
	}
	rep.Printf("watchdog: %d job(s) recovered after heartbeat loss", len(failed))
	recovered, err := svc.GetJob(j1.ID)
	if err != nil {
		return nil, err
	}
	rep.Data["watchdogFailed"] = len(failed)
	rep.Data["recoveredStatus"] = string(recovered.Status)

	// The recovered job runs to completion on a healthy agent.
	j1b, ok, err := svc.ClaimJob(dep.ID)
	if err != nil || !ok {
		return nil, fmt.Errorf("re-claim after recovery: %v %v", ok, err)
	}
	if err := svc.CompleteJob(j1b.ID, []byte(`{"throughput": 4}`), nil); err != nil {
		return nil, err
	}
	st, err := svc.EvaluationStatusOf(ev.ID)
	if err != nil {
		return nil, err
	}
	rep.Printf("evaluation: %d/%d finished after recovery", st.Finished, st.Total)
	rep.Data["allFinished"] = st.Done() && st.Finished == st.Total

	// Part 3: the archive captures settings, results, logs and timelines.
	data, err := svc.ExportProject(proj.ID)
	if err != nil {
		return nil, err
	}
	arch, err := core.ReadProjectArchive(data)
	if err != nil {
		return nil, err
	}
	nJobs := 0
	nResults := 0
	for _, ea := range arch.Evaluations {
		for _, ja := range ea.Jobs {
			nJobs++
			if ja.Result != nil {
				nResults++
			}
		}
	}
	rep.Printf("archive: %d bytes, %d jobs, %d results, experiment settings preserved: %v",
		len(data), nJobs, nResults, len(arch.Experiments) == 1)
	rep.Data["archiveJobs"] = nJobs
	rep.Data["archiveResults"] = nResults
	return rep, nil
}
