// Package experiments regenerates every figure of the paper's
// demonstration (E1-E8, plus the E9 drift experiment). Each
// experiment returns a Report with human-readable output — the rows and
// series the paper's figures show — plus structured data that the test
// suite asserts the expected *shape* on (who wins, where the crossover
// falls), since absolute numbers depend on the host.
//
// Agents reach Chronos Control the one way chronos-agent does: through
// pkg/client over the REST API. The testbed of the experiments that run
// agents (E4, E6, E9) serves its service on a loopback port, and E1 and
// E7 start a server of their own.
//
// The same functions back cmd/chronos-bench, the repository-level
// benchmarks in bench_test.go, and the integration tests.
package experiments

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"time"

	"chronos/internal/agent"
	"chronos/internal/agent/sims"
	"chronos/internal/core"
	"chronos/internal/mongosim"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/internal/rest"
	"chronos/pkg/client"
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

// testbed is an in-process Chronos deployment shared by the experiments:
// a memory-backed service served over HTTP, which its agents reach
// through pkg/client like any chronos-agent.
type testbed struct {
	svc       *core.Service
	server    *httptest.Server
	userID    string
	projectID string
}

// newTestbed boots a memory-backed control with the demo project and
// serves it on a loopback port; close stops the server.
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
	server := rest.NewServer(svc)
	server.Logger = discardLogger()
	return &testbed{svc: svc, server: httptest.NewServer(server.Handler()), userID: u.ID, projectID: p.ID}, nil
}

func (tb *testbed) close() { tb.server.Close() }

// register registers the simulator family called name and one
// deployment of it.
func (tb *testbed) register(name string) (*core.System, *core.Deployment, error) {
	fam, ok := sims.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("experiments: no simulator family %q", name)
	}
	defs, diagrams := fam.Definition()
	sys, err := tb.svc.RegisterSystem(fam.Name, fam.Description, defs, diagrams)
	if err != nil {
		return nil, nil, err
	}
	dep, err := tb.svc.CreateDeployment(sys.ID, "sim-1", "inprocess", "1.0")
	if err != nil {
		return nil, nil, err
	}
	return sys, dep, nil
}

// engineOptions derives mongosim options from the config.
func engineOptions(cfg Config, seed int64) mongosim.Options {
	return mongosim.Options{WriteLatency: cfg.WriteLatency, Seed: seed}
}

// agent returns an agent of dep that talks to the testbed over REST, as
// its own v2 client: each agent holds its own job claimed ahead.
func (tb *testbed) agent(dep *core.Deployment, factory func() agent.Runner) *agent.Agent {
	return &agent.Agent{
		Control:      client.NewClient(tb.server.URL, client.WithVersion("v2")),
		DeploymentID: dep.ID,
		Factory:      factory,
	}
}

// drain runs one agent at its default poll and report cadence until dep's
// queue is empty, over the testbed's REST API like a chronos-agent. The
// measuring experiments use it so that progress reporting competes with
// the measured threads no more than in a real deployment.
func (tb *testbed) drain(dep *core.Deployment, factory func() agent.Runner) error {
	_, err := tb.agent(dep, factory).Drain(context.Background())
	return err
}

// runAgents drains the queue with n parallel agents on the given
// deployments (cycled) and returns the wall time.
func (tb *testbed) runAgents(deployments []*core.Deployment, n int, factory func() agent.Runner) (time.Duration, error) {
	start := time.Now()
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		a := tb.agent(deployments[i%len(deployments)], factory)
		a.PollInterval = 10 * time.Millisecond
		a.ReportInterval = 50 * time.Millisecond
		go func() {
			_, err := a.Drain(context.Background())
			errc <- err
		}()
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
