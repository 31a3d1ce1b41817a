// mongodb-engines reproduces the paper's demonstration in full: the
// comparative evaluation of MongoDB's wiredTiger and mmapv1 storage
// engines across client thread counts, with the results analysed as line
// and bar diagrams — the content of paper Fig. 3d. The agent reaches
// Chronos Control over its REST API, served on a loopback port.
//
// Run with: go run ./examples/mongodb-engines [-records N] [-ops N]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"

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
	var (
		records = flag.Int64("records", 5000, "records loaded per job")
		ops     = flag.Int64("ops", 10000, "operations per job")
		svgPath = flag.String("svg", "", "optionally write the line chart as SVG to this file")
	)
	flag.Parse()
	if err := run(*records, *ops, *svgPath); err != nil {
		log.Fatal(err)
	}
}

func run(records, ops int64, svgPath string) error {
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
	defs, diagrams := mongoagent.SystemDefinition()
	sys, err := svc.RegisterSystem(mongoagent.SystemName, "simulated MongoDB", defs, diagrams)
	if err != nil {
		return err
	}
	dep, err := svc.CreateDeployment(sys.ID, "sim", "local", "1.0")
	if err != nil {
		return err
	}
	user, err := svc.CreateUser("demo", core.RoleAdmin)
	if err != nil {
		return err
	}
	project, err := svc.CreateProject("mongodb-demo", "wiredTiger vs mmapv1", user.ID, nil)
	if err != nil {
		return err
	}

	// The demo experiment: engine x thread count on a 50:50 mix.
	threads := []params.Value{params.Int(1), params.Int(2), params.Int(4), params.Int(8), params.Int(16)}
	experiment, err := svc.CreateExperiment(project.ID, sys.ID, "engines-vs-threads", "",
		map[string][]params.Value{
			"engine":     {params.String_("wiredtiger"), params.String_("mmapv1")},
			"threads":    threads,
			"records":    {params.Int(records)},
			"operations": {params.Int(ops)},
			"mix":        {params.Ratio(50, 50)},
		}, 0)
	if err != nil {
		return err
	}
	evaluation, jobs, err := svc.CreateEvaluation(experiment.ID)
	if err != nil {
		return err
	}
	fmt.Printf("running %d jobs (2 engines x %d thread counts), %d ops each...\n",
		len(jobs), len(threads), ops)

	a := &agent.Agent{
		Control:      client.NewClient(ts.URL, client.WithVersion("v2")),
		DeploymentID: dep.ID,
		Factory:      mongoagent.NewFactory(mongosim.Options{}),
	}
	if _, err := a.Drain(context.Background()); err != nil {
		return err
	}
	status, err := svc.EvaluationStatusOf(evaluation.ID)
	if err != nil {
		return err
	}
	fmt.Printf("evaluation %s: %d/%d finished\n\n", evaluation.ID, status.Finished, status.Total)

	// Build the demo's diagrams from the uploaded results.
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
	for _, spec := range []core.DiagramSpec{
		{Type: "line", Title: "Throughput vs Threads", Metric: "throughput",
			XParam: "threads", SeriesParam: "engine"},
		{Type: "bar", Title: "p95 latency (us)", Metric: "latency_p95_us",
			XParam: "threads", SeriesParam: "engine"},
	} {
		chart, err := analysis.BuildChart(spec, rows)
		if err != nil {
			return err
		}
		ascii, err := analysis.RenderASCII(chart, 100)
		if err != nil {
			return err
		}
		fmt.Println(ascii)
		if svgPath != "" && spec.Type == "line" {
			svg, err := analysis.RenderSVG(chart, 720, 400)
			if err != nil {
				return err
			}
			if err := os.WriteFile(svgPath, []byte(svg), 0o644); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n\n", svgPath)
		}
	}

	// Engine-internal statistics from the result documents.
	fmt.Println("engine internals (from result JSON):")
	fmt.Printf("%12s %8s %18s %12s %8s\n", "engine", "threads", "compressionRatio", "cacheHits", "moves")
	for i, j := range jobs {
		row := rows[i]
		fmt.Printf("%12s %8d %18.2f %12.0f %8.0f\n",
			j.Params.String("engine", "?"), j.Params.Int("threads", 0),
			row.Values["engineStats.compressionRatio"],
			row.Values["engineStats.cacheHits"],
			row.Values["engineStats.moves"])
	}
	return nil
}
