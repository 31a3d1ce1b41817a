// Package experiments regenerates every figure of the paper's
// demonstration (E1-E8, plus the E9 drift experiment). Each
// experiment returns a Report with human-readable output — the rows and
// series the paper's figures show — plus structured data that the test
// suite asserts the expected *shape* on (who wins, where the crossover
// falls), since absolute numbers depend on the host.
//
// The same functions back cmd/chronos-bench, the repository-level
// benchmarks in bench_test.go, and the integration tests.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/mongoagent"
	"chronos/internal/mongosim"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/internal/tsagent"
)

// Config scales the experiments.
type Config struct {
	// Records is the table size loaded per job.
	Records int64
	// Operations is the op count per job.
	Operations int64
	// Threads is the thread-count sweep of the demo (E6).
	Threads []int64
	// WriteLatency passes through to the simulated engines; 0 keeps the
	// engines' default (the faithful simulation), mongosim.NoIO disables
	// it for CPU-bound quick runs.
	WriteLatency time.Duration
	// Quiet suppresses per-job progress lines in reports.
	Quiet bool
}

// Quick returns a configuration sized for CI / go test.
func Quick() Config {
	return Config{
		Records:      2000,
		Operations:   4000,
		Threads:      []int64{1, 2, 4, 8},
		WriteLatency: 0, // default engine latency: preserves the shape
	}
}

// Full returns the full-scale configuration (longer runs, full thread
// sweep).
func Full() Config {
	return Config{
		Records:      10000,
		Operations:   20000,
		Threads:      []int64{1, 2, 4, 8, 16, 32},
		WriteLatency: 0,
	}
}

// Report is the outcome of one experiment.
type Report struct {
	ID    string
	Title string
	Lines []string
	// Data carries structured values for assertions.
	Data map[string]any
}

func newReport(id, title string) *Report {
	return &Report{ID: id, Title: title, Data: map[string]any{}}
}

// Printf appends a formatted line to the report.
func (r *Report) Printf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// String renders the report.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s: %s ===\n", r.ID, r.Title)
	for _, l := range r.Lines {
		sb.WriteString(l)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// testbed is an in-process Chronos deployment shared by the experiments.
type testbed struct {
	svc       *core.Service
	userID    string
	projectID string
}

// newTestbed boots a memory-backed control with the demo project.
func newTestbed() (*testbed, error) {
	svc, err := core.NewService(relstore.OpenMemory(), nil)
	if err != nil {
		return nil, err
	}
	u, err := svc.CreateUser("bench", core.RoleAdmin)
	if err != nil {
		return nil, err
	}
	p, err := svc.CreateProject("paper-repro", "experiment reproduction", u.ID, nil)
	if err != nil {
		return nil, err
	}
	return &testbed{svc: svc, userID: u.ID, projectID: p.ID}, nil
}

// registerMongo registers the demo SuE and one deployment.
func (tb *testbed) registerMongo() (*core.System, *core.Deployment, error) {
	defs, diagrams := mongoagent.SystemDefinition()
	sys, err := tb.svc.RegisterSystem(mongoagent.SystemName, "simulated MongoDB", defs, diagrams)
	if err != nil {
		return nil, nil, err
	}
	dep, err := tb.svc.CreateDeployment(sys.ID, "sim-1", "inprocess", "1.0")
	if err != nil {
		return nil, nil, err
	}
	return sys, dep, nil
}

// registerTS registers the time-series SuE and one deployment.
func (tb *testbed) registerTS() (*core.System, *core.Deployment, error) {
	defs, diagrams := tsagent.SystemDefinition()
	sys, err := tb.svc.RegisterSystem(tsagent.SystemName, "simulated time-series store", defs, diagrams)
	if err != nil {
		return nil, nil, err
	}
	dep, err := tb.svc.CreateDeployment(sys.ID, "tsdb-1", "inprocess", "1.0")
	if err != nil {
		return nil, nil, err
	}
	return sys, dep, nil
}

// engineOptions derives mongosim options from the config.
func engineOptions(cfg Config, seed int64) mongosim.Options {
	return mongosim.Options{WriteLatency: cfg.WriteLatency, Seed: seed}
}

// runAgents drains the queue with n parallel agents on the given
// deployments (cycled) and returns the wall time.
func runAgents(svc *core.Service, deployments []*core.Deployment, n int, factory func() agent.Runner) (time.Duration, error) {
	start := time.Now()
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		dep := deployments[i%len(deployments)]
		go func(dep *core.Deployment) {
			a := &agent.Agent{
				Control:        &agent.LocalControl{Svc: svc},
				DeploymentID:   dep.ID,
				Factory:        factory,
				PollInterval:   10 * time.Millisecond,
				ReportInterval: 50 * time.Millisecond,
			}
			_, err := a.Drain(context.Background())
			errc <- err
		}(dep)
	}
	for i := 0; i < n; i++ {
		if err := <-errc; err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// intsToValues converts a thread sweep to parameter values.
func intsToValues(ns []int64) []params.Value {
	out := make([]params.Value, len(ns))
	for i, n := range ns {
		out[i] = params.Int(n)
	}
	return out
}
