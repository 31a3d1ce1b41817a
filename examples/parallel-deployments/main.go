// parallel-deployments demonstrates two reliability features of Chronos
// (paper §2.1): parallelising an evaluation across multiple identical
// deployments, and automatic recovery when an agent disappears mid-job
// (heartbeat watchdog + re-scheduling). The healthy agents reach Chronos
// Control over its REST API, served on a loopback port.
//
// Run with: go run ./examples/parallel-deployments
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"time"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/mongoagent"
	"chronos/internal/mongosim"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/internal/rest"
	"chronos/pkg/client"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	svc, err := core.NewService(relstore.OpenMemory(), nil)
	if err != nil {
		return err
	}
	svc.HeartbeatTimeout = 2 * time.Second
	svc.StartWatchdog(context.Background(), 250*time.Millisecond)
	// Chronos Control's REST API on a loopback port: the agents talk to
	// it over HTTP, as chronos-agents on other hosts would.
	server := rest.NewServer(svc)
	server.Logger = log.New(io.Discard, "", 0) // keep the demo output readable
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	defs, diagrams := mongoagent.SystemDefinition()
	sys, err := svc.RegisterSystem(mongoagent.SystemName, "simulated MongoDB", defs, diagrams)
	if err != nil {
		return err
	}
	user, _ := svc.CreateUser("ops", core.RoleAdmin)
	project, _ := svc.CreateProject("reliability-demo", "", user.ID, nil)

	// Three identical deployments of the same SuE.
	var deps []*core.Deployment
	for i := 1; i <= 3; i++ {
		d, err := svc.CreateDeployment(sys.ID, fmt.Sprintf("node-%d", i), "cluster", "1.0")
		if err != nil {
			return err
		}
		deps = append(deps, d)
	}

	experiment, err := svc.CreateExperiment(project.ID, sys.ID, "sweep", "",
		map[string][]params.Value{
			"threads":    {params.Int(1), params.Int(2), params.Int(4), params.Int(8), params.Int(12), params.Int(16)},
			"records":    {params.Int(1000)},
			"operations": {params.Int(2500)},
		}, 3)
	if err != nil {
		return err
	}
	evaluation, jobs, err := svc.CreateEvaluation(experiment.ID)
	if err != nil {
		return err
	}
	fmt.Printf("evaluation %s: %d jobs over %d identical deployments\n",
		evaluation.ID, len(jobs), len(deps))

	factory := mongoagent.NewFactory(mongosim.Options{})

	// Agent 1 is unreliable: it claims a job and "crashes" (stops
	// heartbeating). The watchdog fails the job and re-schedules it.
	crashed, ok, err := svc.ClaimJob(deps[0].ID)
	if err != nil || !ok {
		return fmt.Errorf("crashing agent claim: %v %v", ok, err)
	}
	fmt.Printf("agent on %s claimed %s and crashed (no more heartbeats)\n",
		deps[0].Name, crashed.ID)

	// Healthy agents on the other deployments drain the queue in
	// parallel while the watchdog recovers the orphaned job.
	start := time.Now()
	done := make(chan error, 2)
	for _, d := range deps[1:] {
		go func(d *core.Deployment) {
			a := &agent.Agent{
				Control:        client.NewClient(ts.URL, client.WithVersion("v2")),
				DeploymentID:   d.ID,
				Factory:        factory,
				PollInterval:   100 * time.Millisecond,
				ReportInterval: 200 * time.Millisecond,
			}
			// Keep polling until every job reached a terminal state, so
			// the watchdog-recovered job is picked up too.
			for {
				n, err := a.Drain(context.Background())
				if err != nil {
					done <- err
					return
				}
				st, err := svc.EvaluationStatusOf(evaluation.ID)
				if err != nil {
					done <- err
					return
				}
				if st.Done() {
					done <- nil
					return
				}
				if n == 0 {
					time.Sleep(100 * time.Millisecond)
				}
			}
		}(d)
	}
	for range deps[1:] {
		if err := <-done; err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	st, err := svc.EvaluationStatusOf(evaluation.ID)
	if err != nil {
		return err
	}
	fmt.Printf("\nall jobs terminal after %v: %d finished, %d failed, %d aborted\n",
		elapsed.Round(time.Millisecond), st.Finished, st.Failed, st.Aborted)

	// Show the recovered job's timeline: claimed -> heartbeat-lost ->
	// rescheduled -> claimed (by a healthy node) -> finished.
	fmt.Printf("\ntimeline of the crashed job %s:\n", crashed.ID)
	timeline, err := svc.JobTimeline(crashed.ID)
	if err != nil {
		return err
	}
	for _, e := range timeline {
		fmt.Printf("  %-14s %s\n", e.Kind, e.Message)
	}
	final, _ := svc.GetJob(crashed.ID)
	fmt.Printf("final status: %s after %d attempts\n", final.Status, final.Attempts)
	return nil
}
