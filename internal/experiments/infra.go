package experiments

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"sync"
	"time"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/mongoagent"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/internal/rest"
	"chronos/pkg/client"
)

// E1Architecture reproduces Fig. 1: the full toolkit — Chronos Control
// with its REST API, two different Systems under Evaluation, and one
// Chronos Agent per SuE, all communicating over HTTP, with evaluations of
// both systems executing concurrently (requirement ii).
func E1Architecture(cfg Config) (*Report, error) {
	rep := newReport("E1", "Architecture: Control + REST + agents + 2 SuEs (Fig. 1)")

	db := relstore.OpenMemory()
	svc, err := core.NewService(db, nil)
	if err != nil {
		return nil, err
	}
	server := rest.NewServer(svc)
	server.Logger = discardLogger()
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()
	rep.Printf("chronos control listening at %s (API versions v1, v2)", ts.URL)

	c := client.NewClient(ts.URL, client.WithVersion("v2"))
	u, err := c.CreateUser("operator", core.RoleAdmin)
	if err != nil {
		return nil, err
	}
	proj, err := c.CreateProject("multi-sue", "parallel evaluation of two systems", u.ID, nil)
	if err != nil {
		return nil, err
	}

	// System A: the MongoDB simulator.
	defsA, diagramsA := mongoagent.SystemDefinition()
	sysA, err := c.RegisterSystem(mongoagent.SystemName, "simulated MongoDB", defsA, diagramsA)
	if err != nil {
		return nil, err
	}
	depA, err := c.CreateDeployment(sysA.ID, "mongo-sim-1", "host-a", "1.0")
	if err != nil {
		return nil, err
	}
	expA, err := c.CreateExperiment(proj.ID, sysA.ID, "mongo-quick", "",
		map[string][]params.Value{
			"engine":     {params.String_("wiredtiger"), params.String_("mmapv1")},
			"records":    {params.Int(cfg.Records / 4)},
			"operations": {params.Int(cfg.Operations / 4)},
		}, 0)
	if err != nil {
		return nil, err
	}

	// System B: a second, synthetic SuE with its own parameters.
	defsB := []params.Definition{
		{Name: "duration", Type: params.TypeValue, ValueKind: params.KindInt,
			Min: 1, Max: 10000, Default: params.Int(30)},
	}
	sysB, err := c.RegisterSystem("synthetic-sue", "scripted evaluation client", defsB, nil)
	if err != nil {
		return nil, err
	}
	depB, err := c.CreateDeployment(sysB.ID, "synthetic-1", "host-b", "2.3")
	if err != nil {
		return nil, err
	}
	expB, err := c.CreateExperiment(proj.ID, sysB.ID, "synthetic-quick", "",
		map[string][]params.Value{
			"duration": {params.Int(20), params.Int(30), params.Int(40)},
		}, 0)
	if err != nil {
		return nil, err
	}

	evA, jobsA, err := c.CreateEvaluation(expA.ID)
	if err != nil {
		return nil, err
	}
	evB, jobsB, err := c.CreateEvaluation(expB.ID)
	if err != nil {
		return nil, err
	}
	rep.Printf("scheduled: %s (%d jobs, %s) and %s (%d jobs, %s)",
		evA.ID, len(jobsA), sysA.Name, evB.ID, len(jobsB), sysB.Name)

	// Two agents over the REST API, one per SuE, running concurrently.
	agentFor := func(depID string, factory func() agent.Runner) *agent.Agent {
		return &agent.Agent{
			Control:        client.NewClient(ts.URL, client.WithVersion("v2")),
			DeploymentID:   depID,
			Factory:        factory,
			PollInterval:   10 * time.Millisecond,
			ReportInterval: 50 * time.Millisecond,
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	start := time.Now()
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := agentFor(depA.ID, mongoagent.NewFactory(engineOptions(cfg, 1))).Drain(context.Background())
		errs <- err
	}()
	go func() {
		defer wg.Done()
		_, err := agentFor(depB.ID, newSyntheticFactory(20*time.Millisecond, nil)).Drain(context.Background())
		errs <- err
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return nil, err
		}
	}
	elapsed := time.Since(start)

	stA, err := c.EvaluationStatus(evA.ID)
	if err != nil {
		return nil, err
	}
	stB, err := c.EvaluationStatus(evB.ID)
	if err != nil {
		return nil, err
	}
	rep.Printf("both evaluations done in %v over the wire", elapsed.Round(time.Millisecond))
	rep.Printf("%s: %d/%d finished; %s: %d/%d finished",
		sysA.Name, stA.Finished, stA.Total, sysB.Name, stB.Finished, stB.Total)
	rep.Data["doneA"] = stA.Done()
	rep.Data["doneB"] = stB.Done()
	rep.Data["finishedA"] = stA.Finished
	rep.Data["finishedB"] = stB.Finished
	return rep, nil
}

// E7APIVersioning exercises the versioned REST interface: a v1 client and
// a v2 client run the same workflow side by side; v2-only features are
// additive and v1 behaviour is unchanged (paper §2.2 REST interface).
func E7APIVersioning() (*Report, error) {
	rep := newReport("E7", "Versioned REST API: v1 and v2 clients side by side")

	db := relstore.OpenMemory()
	svc, err := core.NewService(db, nil)
	if err != nil {
		return nil, err
	}
	server := rest.NewServer(svc)
	server.Logger = discardLogger()
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	admin, err := svc.CreateUser("admin", core.RoleAdmin)
	if err != nil {
		return nil, err
	}
	if err := server.Auth().SetPassword(admin.ID, "paper-demo"); err != nil {
		return nil, err
	}

	v1 := client.NewClient(ts.URL, client.WithVersion("v1"))
	v2 := client.NewClient(ts.URL, client.WithVersion("v2"))
	for name, c := range map[string]*client.Client{"v1": v1, "v2": v2} {
		pong, err := c.Ping()
		if err != nil {
			return nil, fmt.Errorf("%s ping: %w", name, err)
		}
		rep.Printf("%s ping -> service=%s version=%s supported=%v", name, pong.Service, pong.Version, pong.Versions)
		if err := c.Login("admin", "paper-demo"); err != nil {
			return nil, fmt.Errorf("%s login: %w", name, err)
		}
	}

	// The v1 client builds the workflow; the v2 client consumes it.
	proj, err := v1.CreateProject("versioning", "", admin.ID, nil)
	if err != nil {
		return nil, err
	}
	defs, diagrams := mongoagent.SystemDefinition()
	sys, err := v1.RegisterSystem(mongoagent.SystemName, "", defs, diagrams)
	if err != nil {
		return nil, err
	}
	dep, err := v1.CreateDeployment(sys.ID, "d1", "", "")
	if err != nil {
		return nil, err
	}
	exp, err := v1.CreateExperiment(proj.ID, sys.ID, "e", "", nil, 0)
	if err != nil {
		return nil, err
	}
	if _, _, err := v1.CreateEvaluation(exp.ID); err != nil {
		return nil, err
	}
	if _, _, err := v2.CreateEvaluation(exp.ID); err != nil {
		return nil, err
	}

	// v1 claim: no inline definitions; v2 claim: definitions included.
	j1, defs1, err := v1.ClaimJob(dep.ID)
	if err != nil || j1 == nil {
		return nil, fmt.Errorf("v1 claim: %w", err)
	}
	j2, defs2, err := v2.ClaimJob(dep.ID)
	if err != nil || j2 == nil {
		return nil, fmt.Errorf("v2 claim: %w", err)
	}
	rep.Printf("v1 claim -> job + %d inline parameter definitions (backwards compatible)", len(defs1))
	rep.Printf("v2 claim -> job + %d inline parameter definitions (new feature)", len(defs2))

	// v2 batch update; v1 equivalent takes two calls.
	pct := int64(40)
	if _, err := v2.BatchUpdate(j2.ID, &pct, "v2 batched log+progress\n"); err != nil {
		return nil, err
	}
	if err := v1.AppendLog(j1.ID, "v1 separate log\n"); err != nil {
		return nil, err
	}
	if _, err := v1.Progress(j1.ID, 40); err != nil {
		return nil, err
	}
	rep.Printf("v2 batch update: 1 request; v1 equivalent: 2 requests")

	// Both complete fine.
	for _, pair := range []struct {
		c *client.Client
		j string
	}{{v1, j1.ID}, {v2, j2.ID}} {
		if err := pair.c.Complete(pair.j, []byte(`{"throughput": 1}`), nil); err != nil {
			return nil, err
		}
	}
	rep.Data["v1Defs"] = len(defs1)
	rep.Data["v2Defs"] = len(defs2)
	return rep, nil
}

// discardLogger silences the REST access log in experiment runs.
func discardLogger() *log.Logger { return log.New(io.Discard, "", 0) }
