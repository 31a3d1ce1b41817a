// Command chronos-agent runs a generic Chronos Agent hosting one of the
// simulated evaluation clients: the MongoDB simulator (the paper's demo
// agent) or the time-series store. It polls Chronos Control for jobs of
// one deployment, executes the benchmark phases, and uploads results
// over HTTP or to an FTP archive store.
//
// Usage:
//
//	chronos-agent -control http://localhost:8080 -deployment deployment-000000001 \
//	    [-system mongodb-sim|timeseries-sim] [-api v2] [-agent-token SECRET] \
//	    [-ftp host:21 -ftp-user u -ftp-pass p]
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"chronos/internal/agent"
	"chronos/internal/agent/sims"
	"chronos/internal/ftpx"
	"chronos/pkg/client"
)

func main() {
	var names []string
	for _, f := range sims.Families {
		names = append(names, f.Name)
	}
	families := strings.Join(names, " or ")
	var (
		controlURL = flag.String("control", "http://localhost:8080", "Chronos Control base URL")
		deployment = flag.String("deployment", "", "deployment id this agent serves (required)")
		apiVersion = flag.String("api", "v2", "REST API version to use (v1 or v2)")
		agentToken = flag.String("agent-token", "", "shared agent token")
		ftpAddr    = flag.String("ftp", "", "FTP archive store address (empty = upload archives inline)")
		ftpUser    = flag.String("ftp-user", "", "FTP user")
		ftpPass    = flag.String("ftp-pass", "", "FTP password")
		poll       = flag.Duration("poll", time.Second, "idle poll interval")
		report     = flag.Duration("report", 2*time.Second, "progress/log reporting interval")
		ioLatency  = flag.Duration("write-latency", 0, "simulated engine write latency (0 = engine default)")
		system     = flag.String("system", names[0], "SUT family this agent hosts ("+families+")")
	)
	flag.Parse()
	if *deployment == "" {
		log.Fatal("chronos-agent: -deployment is required")
	}

	opts := []client.Option{client.WithVersion(*apiVersion)}
	if *agentToken != "" {
		opts = append(opts, client.WithAgentToken(*agentToken))
	}
	family, ok := sims.Lookup(*system)
	if !ok {
		log.Fatalf("chronos-agent: unknown -system %q (use %s)", *system, families)
	}

	c := client.NewClient(*controlURL, opts...)
	if pong, err := c.Ping(); err != nil {
		log.Fatalf("chronos-agent: cannot reach control at %s: %v", *controlURL, err)
	} else {
		log.Printf("connected to %s (API %s)", pong.Service, pong.Version)
	}

	a := &agent.Agent{
		Control:        c,
		DeploymentID:   *deployment,
		Factory:        family.Factory(*ioLatency, 0),
		PollInterval:   *poll,
		ReportInterval: *report,
	}
	if *ftpAddr != "" {
		a.ArchiveStore = &ftpx.ArchiveStore{Addr: *ftpAddr, User: *ftpUser, Pass: *ftpPass}
		log.Printf("result archives go to ftp://%s", *ftpAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("agent hosting %s, polling for deployment %s", *system, *deployment)
	if err := a.Run(ctx); err != nil && err != context.Canceled {
		log.Fatal(err)
	}
	log.Print("agent stopped")
}
