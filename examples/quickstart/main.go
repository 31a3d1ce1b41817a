// Quickstart: the smallest complete Chronos workflow, in one process:
// Chronos Control and its REST API on a loopback port, and one Chronos
// agent talking to it over HTTP.
//
// It walks the two workflows of paper §3 end to end:
//  1. register a System under Evaluation (the MongoDB simulator) with its
//     parameters and result diagrams,
//  2. create a project and an experiment, run an evaluation through a
//     Chronos agent, and analyse the results.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"

	"chronos/internal/agent"
	"chronos/internal/analysis"
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
	// Chronos Control, backed by an in-memory store for the demo.
	svc, err := core.NewService(relstore.OpenMemory(), nil)
	if err != nil {
		return err
	}
	// Chronos Control's REST API on a loopback port: the agent talks to
	// it over HTTP, as a chronos-agent on another host would.
	server := rest.NewServer(svc)
	server.Logger = log.New(io.Discard, "", 0) // keep the demo output readable
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	// Workflow 1 (paper §3): register the SuE.
	defs, diagrams := mongoagent.SystemDefinition()
	sys, err := svc.RegisterSystem(mongoagent.SystemName, "simulated MongoDB", defs, diagrams)
	if err != nil {
		return err
	}
	dep, err := svc.CreateDeployment(sys.ID, "local-sim", "in-process", "1.0")
	if err != nil {
		return err
	}
	fmt.Printf("registered system %s with %d parameters, deployment %s\n",
		sys.Name, len(sys.Parameters), dep.Name)

	// Workflow 2: project -> experiment -> evaluation -> jobs.
	user, err := svc.CreateUser("quickstart", core.RoleAdmin)
	if err != nil {
		return err
	}
	project, err := svc.CreateProject("getting-started", "quickstart project", user.ID, nil)
	if err != nil {
		return err
	}
	experiment, err := svc.CreateExperiment(project.ID, sys.ID, "two-engines", "",
		map[string][]params.Value{
			"engine":     {params.String_("wiredtiger"), params.String_("mmapv1")},
			"records":    {params.Int(2000)},
			"operations": {params.Int(5000)},
		}, 0)
	if err != nil {
		return err
	}
	evaluation, jobs, err := svc.CreateEvaluation(experiment.ID)
	if err != nil {
		return err
	}
	fmt.Printf("evaluation %s created with %d jobs\n", evaluation.ID, len(jobs))

	// A Chronos agent executes the jobs.
	a := &agent.Agent{
		Control:      client.NewClient(ts.URL, client.WithVersion("v2")),
		DeploymentID: dep.ID,
		Factory:      mongoagent.NewFactory(mongosim.Options{}),
	}
	n, err := a.Drain(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("agent executed %d jobs\n\n", n)

	// Analysis: the same series the web UI's results page renders.
	var rows []analysis.ResultRow
	for _, j := range jobs {
		res, err := svc.GetJobResult(j.ID)
		if err != nil {
			return err
		}
		row, err := analysis.RowFromResult(j, res.JSON)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	chart, err := analysis.BuildChart(core.DiagramSpec{
		Type: "bar", Title: "Throughput by engine", Metric: "throughput",
		XParam: "engine",
	}, rows)
	if err != nil {
		return err
	}
	ascii, err := analysis.RenderASCII(chart, 90)
	if err != nil {
		return err
	}
	fmt.Print(ascii)

	// Jobs carry full timelines and logs (paper Fig. 3c).
	timeline, err := svc.JobTimeline(jobs[0].ID)
	if err != nil {
		return err
	}
	fmt.Printf("\ntimeline of %s:\n", jobs[0].ID)
	for _, e := range timeline {
		fmt.Printf("  %-12s %s\n", e.Kind, e.Message)
	}
	return nil
}
