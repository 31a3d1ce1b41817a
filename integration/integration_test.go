// Package integration tests the fully composed Chronos deployment the
// way cmd/chronos-control assembles it: durable store, REST API, web UI,
// session auth, heartbeat watchdog, agents over HTTP, and the FTP
// archive-offload path — the complete Fig. 1 architecture on one box.
package integration

import (
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/experiments"
	"chronos/internal/ftpx"
	"chronos/internal/mongoagent"
	"chronos/internal/mongosim"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/internal/rest"
	"chronos/pkg/client"
)

// stack is the full deployment under test.
type stack struct {
	db  *relstore.DB
	svc *core.Service
	ts  *httptest.Server
	ftp *ftpx.Server
}

// newStack assembles control + the HTTP edge (REST API and web UI) like
// cmd/chronos-control.
func newStack(t *testing.T, dataDir string) *stack {
	t.Helper()
	db, err := relstore.Open(dataDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.NewService(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	server := rest.NewServer(svc)
	server.Logger = log.New(io.Discard, "", 0)
	ts := httptest.NewServer(server.Handler())

	ftp := &ftpx.Server{Store: ftpx.NewMemStore()}
	if err := ftp.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	st := &stack{db: db, svc: svc, ts: ts, ftp: ftp}
	t.Cleanup(func() {
		ts.Close()
		ftp.Close()
		db.Close()
	})
	return st
}

// TestFullStackWithFTPOffloadAndDurability is the big one: a complete
// evaluation over HTTP with FTP archive offload, UI checks, archive
// export, and a control restart that preserves everything.
func TestFullStackWithFTPOffloadAndDurability(t *testing.T) {
	dataDir := t.TempDir()
	st := newStack(t, dataDir)
	c := client.NewClient(st.ts.URL, client.WithVersion("v2"))

	// Operator setup over REST.
	u, err := c.CreateUser("op", core.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.CreateProject("integration", "", u.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	defs, diagrams := mongoagent.SystemDefinition()
	sys, err := c.RegisterSystem(mongoagent.SystemName, "", defs, diagrams)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := c.CreateDeployment(sys.ID, "node", "it", "1")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := c.CreateExperiment(p.ID, sys.ID, "it-sweep", "", map[string][]params.Value{
		"engine":     {params.String_("wiredtiger"), params.String_("mmapv1")},
		"records":    {params.Int(300)},
		"operations": {params.Int(600)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev, jobs, err := c.CreateEvaluation(exp.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Agent over HTTP with FTP archive offload.
	a := &agent.Agent{
		Control:      client.NewClient(st.ts.URL, client.WithVersion("v2")),
		DeploymentID: dep.ID,
		Factory: mongoagent.NewFactory(mongosim.Options{
			WriteLatency: mongosim.NoIO, Seed: 1,
		}),
		ArchiveStore:   &ftpx.ArchiveStore{Addr: st.ftp.Addr()},
		ReportInterval: 20 * time.Millisecond,
	}
	if _, err := a.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	status, err := c.EvaluationStatus(ev.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !status.Done() || status.Finished != len(jobs) {
		t.Fatalf("status = %+v", status)
	}

	// Archives went to the FTP store; results reference them.
	names, err := st.ftp.Store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != len(jobs) {
		t.Fatalf("ftp archives = %v", names)
	}
	res, err := c.JobResult(jobs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Archive) != 0 {
		t.Fatal("archive stored inline despite FTP offload")
	}
	var doc map[string]any
	json.Unmarshal(res.JSON, &doc)
	ref, _ := doc["archiveRef"].(string)
	if !strings.HasPrefix(ref, "ftp://") {
		t.Fatalf("archiveRef = %q", ref)
	}
	// The referenced archive is retrievable over FTP.
	fc, err := ftpx.Dial(st.ftp.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Quit()
	if err := fc.Login("", ""); err != nil {
		t.Fatal(err)
	}
	blob, err := fc.Retrieve(jobs[0].ID + ".zip")
	if err != nil || len(blob) == 0 {
		t.Fatalf("ftp retrieve: %d bytes, %v", len(blob), err)
	}

	// The web UI renders the results page with diagrams.
	resp, err := st.ts.Client().Get(st.ts.URL + "/evaluations/" + ev.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "<svg") {
		t.Fatal("results page missing diagrams")
	}

	// Export the project archive over REST.
	zipData, err := c.ExportProject(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := core.ReadProjectArchive(zipData)
	if err != nil {
		t.Fatal(err)
	}
	if len(arch.Evaluations) != 1 || len(arch.Evaluations[0].Jobs) != len(jobs) {
		t.Fatalf("archive shape: %d evaluations", len(arch.Evaluations))
	}

	// Restart the control on the same data directory: everything must
	// come back (requirement iii, durability across restarts).
	st.ts.Close()
	st.db.Close()
	st2 := newStack(t, dataDir)
	c2 := client.NewClient(st2.ts.URL, client.WithVersion("v2"))
	st2ev, err := c2.EvaluationStatus(ev.ID)
	if err != nil {
		t.Fatalf("after restart: %v", err)
	}
	if !st2ev.Done() || st2ev.Finished != len(jobs) {
		t.Fatalf("after restart: %+v", st2ev)
	}
	res2, err := c2.JobResult(jobs[0].ID)
	if err != nil || len(res2.JSON) == 0 {
		t.Fatalf("result lost across restart: %v", err)
	}
	logs, err := c2.JobLogs(jobs[0].ID)
	if err != nil || len(logs) == 0 {
		t.Fatalf("logs lost across restart: %v", err)
	}
}

// TestAuthenticatedStack verifies the auth-enabled composition: the
// bootstrap admin, role enforcement and agent-token gating together.
func TestAuthenticatedStack(t *testing.T) {
	db := relstore.OpenMemory()
	svc, err := core.NewService(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	server := rest.NewServer(svc)
	au := server.Auth()
	server.AgentToken = "agent-secret"
	server.Logger = log.New(io.Discard, "", 0)
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	admin, _ := svc.CreateUser("root", core.RoleAdmin)
	au.SetPassword(admin.ID, "root-pw")

	c := client.NewClient(ts.URL)
	if err := c.Login("root", "root-pw"); err != nil {
		t.Fatal(err)
	}
	p, err := c.CreateProject("secured", "", admin.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys, _ := c.RegisterSystem("sue", "", nil, nil)
	dep, _ := c.CreateDeployment(sys.ID, "d", "", "")
	exp, _ := c.CreateExperiment(p.ID, sys.ID, "e", "", nil, 0)
	if _, _, err := c.CreateEvaluation(exp.ID); err != nil {
		t.Fatal(err)
	}

	// Agent without token: refused. With token: works end to end.
	noToken := client.NewClient(ts.URL)
	if _, _, err := noToken.ClaimJob(dep.ID); err == nil {
		t.Fatal("tokenless agent accepted")
	}
	withToken := client.NewClient(ts.URL, client.WithAgentToken("agent-secret"))
	j, _, err := withToken.ClaimJob(dep.ID)
	if err != nil || j == nil {
		t.Fatalf("tokened claim: %v %v", j, err)
	}
	if err := withToken.Complete(j.ID, []byte(`{"throughput": 1}`), nil); err != nil {
		t.Fatal(err)
	}
}

// TestWatchdogAcrossHTTP exercises the watchdog against a real timer
// (short timeout): an agent claims over HTTP and vanishes; the job comes
// back and a healthy agent finishes it.
func TestWatchdogAcrossHTTP(t *testing.T) {
	db := relstore.OpenMemory()
	svc, err := core.NewService(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.HeartbeatTimeout = 300 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svc.StartWatchdog(ctx, 50*time.Millisecond)

	server := rest.NewServer(svc)
	server.Logger = log.New(io.Discard, "", 0)
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()
	c := client.NewClient(ts.URL)

	u, _ := c.CreateUser("op", core.RoleAdmin)
	p, _ := c.CreateProject("wd", "", u.ID, nil)
	sys, _ := c.RegisterSystem("sue", "", nil, nil)
	dep, _ := c.CreateDeployment(sys.ID, "d", "", "")
	// MaxAttempts 2: the heartbeat loss consumes attempt 1, leaving one
	// automatic retry.
	exp, _ := c.CreateExperiment(p.ID, sys.ID, "e", "", nil, 2)
	_, jobs, err := c.CreateEvaluation(exp.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Claim and vanish.
	j, _, err := c.ClaimJob(dep.ID)
	if err != nil || j == nil {
		t.Fatal(err)
	}
	// Wait for the watchdog to recover the job.
	deadline := time.After(5 * time.Second)
	for {
		got, err := c.GetJob(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status == core.StatusScheduled {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("watchdog never recovered the job (status %s)", got.Status)
		case <-time.After(50 * time.Millisecond):
		}
	}
	// A healthy claim finishes it.
	j2, _, err := c.ClaimJob(dep.ID)
	if err != nil || j2 == nil {
		t.Fatal(err)
	}
	if j2.ID != jobs[0].ID || j2.Attempts != 2 {
		t.Fatalf("re-claimed = %+v", j2)
	}
	if err := c.Complete(j2.ID, []byte(`{"throughput": 1}`), nil); err != nil {
		t.Fatal(err)
	}
}

// TestE6ShapeAtScale runs the paper demo at a moderate scale and asserts
// the full shape including the crossover: mmapv1 competitive at 1
// thread, wiredTiger ahead at 8 threads on the write-heavy mix, growing
// with thread count.
func TestE6ShapeAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test skipped in -short mode")
	}
	cfg := experiments.Config{
		Records:    1000,
		Operations: 8000,
		Threads:    []int64{1, 4, 8},
	}
	_, res, err := experiments.E6EngineComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const mix = "write-heavy 50:50"
	wt, _ := res.Series(mix, "wiredtiger")
	mm, _ := res.Series(mix, "mmapv1")

	// 1 thread: mmapv1 competitive (within 2x either way).
	r1 := wt.Throughput[0] / mm.Throughput[0]
	if r1 > 2.0 || r1 < 0.3 {
		t.Fatalf("1-thread ratio %0.2f outside competitive band", r1)
	}
	// 8 threads: wiredTiger clearly ahead.
	r8 := wt.Throughput[2] / mm.Throughput[2]
	if r8 < 1.5 {
		t.Fatalf("8-thread ratio %.2f, want wiredTiger ahead", r8)
	}
	// The gap grows with threads.
	if r8 <= r1 {
		t.Fatalf("gap did not grow: %.2f -> %.2f", r1, r8)
	}
	// Read-mostly mix: both engines within a moderate band (no collapse).
	wtR, _ := res.Series("read-mostly 95:5", "wiredtiger")
	mmR, _ := res.Series("read-mostly 95:5", "mmapv1")
	for i := range wtR.Throughput {
		ratio := wtR.Throughput[i] / mmR.Throughput[i]
		if ratio < 0.2 || ratio > 5 {
			t.Fatalf("read-mostly ratio at %d threads = %.2f", wtR.Threads[i], ratio)
		}
	}
}
