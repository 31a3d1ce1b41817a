// Command chronosctl is the command-line client for the Chronos Control
// REST API: it lists entities, schedules evaluations (the build-bot use
// case from paper §2.2), watches their status, manages jobs, and
// downloads project archives.
//
// Usage:
//
//	chronosctl [-control URL] [-api v2] [-token T] <command> [args]
//
// Commands:
//
//	ping
//	login <user> <password>           print a session token for -token
//	users | projects | systems | deployments [systemID] | experiments [projectID]
//	evaluate <experimentID>           schedule an evaluation
//	status                            server storage + replication state
//	status -metrics                   curated summary scraped from GET /metrics
//	status <evaluationID>             aggregate job states
//	jobs <evaluationID>               job table
//	job <jobID>                       job detail with timeline
//	abort <jobID> | reschedule <jobID>
//	logs <jobID>
//	result <jobID>
//	export <projectID> <file.zip>     download the project archive
//	demo-setup                        register the paper's MongoDB demo
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"chronos/internal/core"
	"chronos/internal/mongoagent"
	"chronos/internal/params"
	"chronos/pkg/client"
)

func main() {
	var (
		controlURL = flag.String("control", "http://localhost:8080", "Chronos Control base URL")
		apiVersion = flag.String("api", "v2", "REST API version")
		token      = flag.String("token", "", "session bearer token")
		agentToken = flag.String("agent-token", "", "shared agent token (for job commands)")
		replToken  = flag.String("repl-token", "", "replication token (opens status -metrics on gated servers)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	opts := []client.Option{client.WithVersion(*apiVersion)}
	if *token != "" {
		opts = append(opts, client.WithSessionToken(*token))
	}
	if *agentToken != "" {
		opts = append(opts, client.WithAgentToken(*agentToken))
	}
	if *replToken != "" {
		opts = append(opts, client.WithReplToken(*replToken))
	}
	c := client.NewClient(*controlURL, opts...)

	if err := dispatch(c, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "chronosctl:", err)
		os.Exit(1)
	}
}

func dispatch(c *client.Client, args []string) error {
	cmd, rest := args[0], args[1:]
	need := func(n int, usage string) error {
		if len(rest) < n {
			return fmt.Errorf("usage: chronosctl %s", usage)
		}
		return nil
	}
	switch cmd {
	case "ping":
		pong, err := c.Ping()
		if err != nil {
			return err
		}
		fmt.Printf("%s %s (supported: %v)\n", pong.Service, pong.Version, pong.Versions)
	case "login":
		if err := need(2, "login <user> <password>"); err != nil {
			return err
		}
		if err := c.Login(rest[0], rest[1]); err != nil {
			return err
		}
		// The session outlives this process only through its token: print
		// it, and nothing else, so -token "$(chronosctl login u p)" works.
		fmt.Println(c.SessionToken())
	case "users":
		us, err := c.ListUsers()
		if err != nil {
			return err
		}
		for _, u := range us {
			fmt.Printf("%-22s %-12s %s\n", u.ID, u.Role, u.Name)
		}
	case "projects":
		ps, err := c.ListProjects()
		if err != nil {
			return err
		}
		for _, p := range ps {
			archived := ""
			if p.Archived {
				archived = " [archived]"
			}
			fmt.Printf("%-22s %s%s\n", p.ID, p.Name, archived)
		}
	case "systems":
		ss, err := c.ListSystems()
		if err != nil {
			return err
		}
		for _, s := range ss {
			fmt.Printf("%-22s %-18s %d parameters, %d diagrams\n", s.ID, s.Name, len(s.Parameters), len(s.Diagrams))
		}
	case "deployments":
		systemID := ""
		if len(rest) > 0 {
			systemID = rest[0]
		}
		ds, err := c.ListDeployments(systemID)
		if err != nil {
			return err
		}
		for _, d := range ds {
			state := "active"
			if !d.Active {
				state = "inactive"
			}
			fmt.Printf("%-26s %-14s %-10s %s\n", d.ID, d.Name, state, d.Environment)
		}
	case "experiments":
		projectID := ""
		if len(rest) > 0 {
			projectID = rest[0]
		}
		es, err := c.ListExperiments(projectID)
		if err != nil {
			return err
		}
		for _, e := range es {
			fmt.Printf("%-26s %-20s system=%s\n", e.ID, e.Name, e.SystemID)
		}
	case "evaluate":
		if err := need(1, "evaluate <experimentID>"); err != nil {
			return err
		}
		ev, jobs, err := c.CreateEvaluation(rest[0])
		if err != nil {
			return err
		}
		fmt.Printf("evaluation %s scheduled with %d jobs\n", ev.ID, len(jobs))
	case "status":
		// Without an argument: the server's storage and replication
		// state. With -metrics: a curated summary scraped from
		// GET /metrics. With an evaluation id: that evaluation's job
		// states.
		if len(rest) == 0 {
			return serverStatus(c)
		}
		if rest[0] == "-metrics" {
			return metricsStatus(c)
		}
		st, err := c.EvaluationStatus(rest[0])
		if err != nil {
			return err
		}
		fmt.Printf("total=%d finished=%d running=%d scheduled=%d failed=%d aborted=%d progress=%.0f%%\n",
			st.Total, st.Finished, st.Running, st.Scheduled, st.Failed, st.Aborted, st.Progress)
	case "jobs":
		if err := need(1, "jobs <evaluationID>"); err != nil {
			return err
		}
		jobs, err := c.EvaluationJobs(rest[0])
		if err != nil {
			return err
		}
		for _, j := range jobs {
			fmt.Printf("%-20s %-10s %3d%%  %s\n", j.ID, j.Status, j.Progress, j.Label())
		}
	case "job":
		if err := need(1, "job <jobID>"); err != nil {
			return err
		}
		j, err := c.GetJob(rest[0])
		if err != nil {
			return err
		}
		fmt.Printf("%s: %s progress=%d%% attempts=%d deployment=%s\n",
			j.ID, j.Status, j.Progress, j.Attempts, j.DeploymentID)
		if j.Error != "" {
			fmt.Printf("error: %s\n", j.Error)
		}
		tl, err := c.JobTimeline(j.ID)
		if err != nil {
			return err
		}
		for _, e := range tl {
			fmt.Printf("  %s %-14s %s\n", e.Time.Format("15:04:05"), e.Kind, e.Message)
		}
	case "abort":
		if err := need(1, "abort <jobID>"); err != nil {
			return err
		}
		return c.AbortJob(rest[0])
	case "reschedule":
		if err := need(1, "reschedule <jobID>"); err != nil {
			return err
		}
		return c.RescheduleJob(rest[0])
	case "logs":
		if err := need(1, "logs <jobID>"); err != nil {
			return err
		}
		logs, err := c.JobLogs(rest[0])
		if err != nil {
			return err
		}
		for _, chunk := range logs {
			fmt.Print(chunk.Text)
		}
	case "result":
		if err := need(1, "result <jobID>"); err != nil {
			return err
		}
		res, err := c.JobResult(rest[0])
		if err != nil {
			return err
		}
		fmt.Println(string(res.JSON))
	case "export":
		if err := need(2, "export <projectID> <file.zip>"); err != nil {
			return err
		}
		data, err := c.ExportProject(rest[0])
		if err != nil {
			return err
		}
		if err := os.WriteFile(rest[1], data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %d bytes to %s\n", len(data), rest[1])
	case "demo-setup":
		// Prepare the paper's demonstration: the MongoDB SuE with one
		// deployment and the engine-comparison experiment.
		return demoSetup(c)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
	return nil
}

// serverStatus prints the server's storage counters and, for followers,
// replication progress.
func serverStatus(c *client.Client) error {
	st, err := c.ServerStatus()
	if err != nil {
		return err
	}
	s := st.Storage
	fmt.Printf("%s (%s)\n", st.Service, st.Mode)
	fmt.Printf("storage: %d tables, %d rows, %d WAL segment(s) (%d bytes, active segment %d), snapshot through segment %d, %d compaction(s)\n",
		s.Tables, s.Rows, s.WALSegments, s.WALSizeB, s.WALSeq, s.SnapshotSeq, s.Compactions)
	if s.LastCompactErr != "" {
		fmt.Printf("last compaction error: %s\n", s.LastCompactErr)
	}
	if r := st.Repl; r != nil {
		fmt.Printf("replicating from %s: applied segment %d offset %d; leader at segment %d offset %d (lag: %d segment(s)",
			r.Leader, r.AppliedSeq, r.AppliedBytes, r.LeaderSeq, r.LeaderBytes, r.LagSegments)
		if r.LagBytes >= 0 {
			fmt.Printf(", %s", humanBytes(r.LagBytes))
		}
		fmt.Printf("); %d bootstrap(s)\n", r.Bootstraps)
		fmt.Printf("staleness: %s", humanStaleness(r.StalenessMs))
		if r.MaxStalenessMs > 0 {
			fmt.Printf(" (budget %s)", humanDuration(time.Duration(r.MaxStalenessMs)*time.Millisecond))
		}
		if r.Degraded {
			fmt.Printf(" — DEGRADED, reads answer 503 until the replica proves itself fresh")
		}
		fmt.Println()
		if r.StoreID != "" {
			fmt.Printf("verified against leader generation %s (epoch %d)\n", r.StoreID, r.Epoch)
		}
		if r.LastError != "" {
			fmt.Printf("last replication error: %s\n", r.LastError)
		}
	}
	return nil
}

// humanStaleness renders the staleness report in human units.
func humanStaleness(ms int64) string {
	if ms < 0 {
		return "never caught up yet"
	}
	return humanDuration(time.Duration(ms) * time.Millisecond)
}

// humanDuration rounds a duration to a readable precision.
func humanDuration(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(100 * time.Millisecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

// humanBytes renders a byte count in human units.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// demoSetup registers the paper's demo workflow and prints the ids to
// continue with (evaluate / status / jobs).
func demoSetup(c *client.Client) error {
	user, err := c.CreateUser("demo", core.RoleAdmin)
	if err != nil {
		return err
	}
	project, err := c.CreateProject("mongodb-demo", "wiredTiger vs mmapv1 (EDBT 2020 demo)", user.ID, nil)
	if err != nil {
		return err
	}
	defs, diagrams := mongoagent.SystemDefinition()
	sys, err := c.RegisterSystem(mongoagent.SystemName, "simulated MongoDB", defs, diagrams)
	if err != nil {
		return err
	}
	dep, err := c.CreateDeployment(sys.ID, "sim-1", "local", "1.0")
	if err != nil {
		return err
	}
	exp, err := c.CreateExperiment(project.ID, sys.ID, "engines-vs-threads", "",
		map[string][]params.Value{
			"engine":     {params.String_("wiredtiger"), params.String_("mmapv1")},
			"threads":    {params.Int(1), params.Int(4)},
			"records":    {params.Int(2000)},
			"operations": {params.Int(4000)},
		}, 0)
	if err != nil {
		return err
	}
	fmt.Printf("project:    %s\n", project.ID)
	fmt.Printf("system:     %s\n", sys.ID)
	fmt.Printf("deployment: %s   (start: chronos-agent -deployment %s)\n", dep.ID, dep.ID)
	fmt.Printf("experiment: %s   (run: chronosctl evaluate %s)\n", exp.ID, exp.ID)
	return nil
}
