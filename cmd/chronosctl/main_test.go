package main

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chronos/internal/core"
	"chronos/internal/mongoagent"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/internal/rest"
	"chronos/pkg/client"
)

// fixture starts a control server and returns a connected client plus
// the ids of a populated demo workflow.
func newCtlFixture(t *testing.T) (*client.Client, map[string]string) {
	t.Helper()
	svc, err := core.NewService(relstore.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	server := rest.NewServer(svc)
	server.Logger = log.New(io.Discard, "", 0)
	ts := httptest.NewServer(server.Handler())
	t.Cleanup(ts.Close)

	c := client.NewClient(ts.URL, client.WithVersion("v2"))
	u, _ := c.CreateUser("ctl", core.RoleAdmin)
	p, _ := c.CreateProject("ctl-project", "", u.ID, nil)
	defs, diagrams := mongoagent.SystemDefinition()
	sys, _ := c.RegisterSystem(mongoagent.SystemName, "", defs, diagrams)
	dep, _ := c.CreateDeployment(sys.ID, "node", "", "")
	exp, _ := c.CreateExperiment(p.ID, sys.ID, "sweep", "", map[string][]params.Value{
		"threads": {params.Int(1), params.Int(2)},
	}, 0)
	ev, jobs, _ := c.CreateEvaluation(exp.ID)
	// Run one job so logs/results exist.
	j, _, _ := c.ClaimJob(dep.ID)
	c.AppendLog(j.ID, "ctl log line\n")
	c.Complete(j.ID, []byte(`{"throughput": 11}`), nil)

	return c, map[string]string{
		"project": p.ID, "system": sys.ID, "deployment": dep.ID,
		"experiment": exp.ID, "evaluation": ev.ID,
		"doneJob": j.ID, "pendingJob": jobs[1].ID,
	}
}

// capture runs dispatch with stdout captured.
func capture(t *testing.T, c *client.Client, args ...string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	dispatchErr := dispatch(c, args)
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	if dispatchErr != nil {
		t.Fatalf("dispatch(%v): %v", args, dispatchErr)
	}
	return string(out)
}

func TestDispatchReadCommands(t *testing.T) {
	c, ids := newCtlFixture(t)

	if out := capture(t, c, "ping"); !strings.Contains(out, "chronos-control") {
		t.Fatalf("ping: %q", out)
	}
	if out := capture(t, c, "users"); !strings.Contains(out, "ctl") {
		t.Fatalf("users: %q", out)
	}
	if out := capture(t, c, "projects"); !strings.Contains(out, "ctl-project") {
		t.Fatalf("projects: %q", out)
	}
	if out := capture(t, c, "systems"); !strings.Contains(out, mongoagent.SystemName) {
		t.Fatalf("systems: %q", out)
	}
	if out := capture(t, c, "deployments", ids["system"]); !strings.Contains(out, "node") {
		t.Fatalf("deployments: %q", out)
	}
	if out := capture(t, c, "experiments", ids["project"]); !strings.Contains(out, "sweep") {
		t.Fatalf("experiments: %q", out)
	}
	if out := capture(t, c, "status", ids["evaluation"]); !strings.Contains(out, "finished=1") {
		t.Fatalf("status: %q", out)
	}
	if out := capture(t, c, "jobs", ids["evaluation"]); !strings.Contains(out, "finished") {
		t.Fatalf("jobs: %q", out)
	}
	if out := capture(t, c, "job", ids["doneJob"]); !strings.Contains(out, "claimed") {
		t.Fatalf("job timeline: %q", out)
	}
	if out := capture(t, c, "logs", ids["doneJob"]); !strings.Contains(out, "ctl log line") {
		t.Fatalf("logs: %q", out)
	}
	if out := capture(t, c, "result", ids["doneJob"]); !strings.Contains(out, "11") {
		t.Fatalf("result: %q", out)
	}
}

func TestDispatchMutations(t *testing.T) {
	c, ids := newCtlFixture(t)
	// Schedule another evaluation.
	out := capture(t, c, "evaluate", ids["experiment"])
	if !strings.Contains(out, "scheduled with 2 jobs") {
		t.Fatalf("evaluate: %q", out)
	}
	// Abort the pending job.
	capture(t, c, "abort", ids["pendingJob"])
	j, err := c.GetJob(ids["pendingJob"])
	if err != nil || j.Status != core.StatusAborted {
		t.Fatalf("after abort: %+v %v", j, err)
	}
	// Export writes a zip.
	path := filepath.Join(t.TempDir(), "export.zip")
	out = capture(t, c, "export", ids["project"], path)
	if !strings.Contains(out, "wrote") {
		t.Fatalf("export: %q", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.ReadProjectArchive(data); err != nil {
		t.Fatalf("exported archive invalid: %v", err)
	}
}

func TestDispatchErrors(t *testing.T) {
	c, _ := newCtlFixture(t)
	if err := dispatch(c, []string{"teleport"}); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := dispatch(c, []string{"evaluate"}); err == nil || !strings.Contains(err.Error(), "usage:") {
		t.Fatalf("missing arg: %v", err)
	}
	// status without an argument is the server-status command now.
	if err := dispatch(c, []string{"status"}); err != nil {
		t.Fatalf("server status: %v", err)
	}
	if err := dispatch(c, []string{"job", "job-000000404"}); err == nil {
		t.Fatal("ghost job accepted")
	}
	if err := dispatch(c, []string{"login", "ghost", "pw"}); err == nil {
		t.Fatal("login against authless server accepted")
	}
}

// TestStatusMetricsShippingRatio feeds `status -metrics` a follower's
// exposition: the repl line carries the commits/chunk figure, and leaves
// it out while nothing has been shipped.
func TestStatusMetricsShippingRatio(t *testing.T) {
	for _, tc := range []struct{ counters, want string }{
		{"chronos_repl_chunks_total 40\nchronos_repl_commits_applied_total 500\n",
			"repl: lag 0 segment(s) (0 B), staleness 1ms, 0 bootstrap(s); shipped 500 commit(s) in 40 chunk(s), 12.5 commits/chunk\n"},
		{"chronos_repl_chunks_total 0\nchronos_repl_commits_applied_total 0\n",
			"repl: lag 0 segment(s) (0 B), staleness 1ms, 0 bootstrap(s)\n"},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "chronos_repl_lag_segments 0\nchronos_repl_lag_bytes 0\nchronos_repl_staleness_ms 1\nchronos_repl_bootstraps_total 0\n"+tc.counters)
		}))
		out := capture(t, client.NewClient(ts.URL), "status", "-metrics")
		ts.Close()
		if out != tc.want {
			t.Errorf("status -metrics printed %q, want %q", out, tc.want)
		}
	}
}

// TestLoginPrintsTheToken: `login` exits with nothing but the token on
// stdout, and that token carried by -token into another process (here:
// another client) is the session — on a server that refuses anyone
// without one.
func TestLoginPrintsTheToken(t *testing.T) {
	svc, err := core.NewService(relstore.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	server := rest.NewServer(svc)
	server.Logger = log.New(io.Discard, "", 0)
	ts := httptest.NewServer(server.Handler())
	t.Cleanup(ts.Close)
	root, err := svc.CreateUser("root", core.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Auth().SetPassword(root.ID, "hunter22"); err != nil {
		t.Fatal(err)
	}

	if err := dispatch(client.NewClient(ts.URL), []string{"users"}); err == nil {
		t.Fatal("users listed without a session")
	}
	token := strings.TrimSuffix(capture(t, client.NewClient(ts.URL), "login", "root", "hunter22"), "\n")
	if len(token) != 32 || strings.ContainsAny(token, " \n") {
		t.Fatalf("login printed %q, want the bare session token", token)
	}
	if out := capture(t, client.NewClient(ts.URL, client.WithSessionToken(token)), "users"); !strings.Contains(out, "root") {
		t.Fatalf("users with -token from login: %q", out)
	}
}
