// Command chronos-control runs the Chronos Control server: the REST API
// (paper §2.2) and the web UI on one address, backed by a durable
// embedded store.
//
// Usage:
//
//	chronos-control -addr :8080 -data ./chronos-data \
//	    [-agent-token SECRET] [-admin NAME -admin-password PW]
//
// With -admin/-admin-password set, the named admin account is bootstrapped
// on first start. Session authentication is no flag: it is on exactly when
// the store holds credentials — from this start's -admin or an earlier
// one's — and a store that holds none serves everyone (convenient for
// local demos, like the original installation script's default).
//
// With -replicate-from set, the process runs as a read-only replication
// follower instead: it bootstraps its store from the leader's snapshot,
// replays and tails the leader's WAL over HTTP, and serves the viewer
// (GET) REST endpoints and the web UI from the replica — scaling the
// read path horizontally while all writes stay on the leader. Write
// endpoints answer 503 with a read-only error, and sessions are checked
// against the credentials replicated from the leader.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"chronos/internal/auth"
	"chronos/internal/core"
	"chronos/internal/extension"
	"chronos/internal/metrics"
	"chronos/internal/relstore"
	"chronos/internal/relstore/repl"
	"chronos/internal/rest"
)

// config is what the flags say.
type config struct {
	addr, dataDir, agentToken, replToken string
	adminName, adminPassword, extensions string
	watchdog, hbTimeout                  time.Duration
	segmentBytes                         int64
	compactEvery                         int
	replicateFrom                        string
	maxStaleness, readAfterWait, slowOp  time.Duration
}

func main() {
	var c config
	flag.StringVar(&c.addr, "addr", ":8080", "listen address for REST API and web UI")
	flag.StringVar(&c.dataDir, "data", "chronos-data", "directory for the embedded store")
	flag.StringVar(&c.agentToken, "agent-token", "", "shared token agents must present (empty = open)")
	flag.StringVar(&c.adminName, "admin", "", "bootstrap admin user name (its password is what turns session auth on)")
	flag.StringVar(&c.adminPassword, "admin-password", "", "bootstrap admin password")
	flag.StringVar(&c.extensions, "extensions", "", "comma-separated extension repository directories")
	flag.DurationVar(&c.watchdog, "watchdog", 10*time.Second, "heartbeat watchdog interval")
	flag.DurationVar(&c.hbTimeout, "heartbeat-timeout", 60*time.Second, "running-job heartbeat timeout")
	flag.Int64Var(&c.segmentBytes, "wal-segment-bytes", 4<<20, "WAL segment rotation threshold in bytes")
	flag.IntVar(&c.compactEvery, "compact-every", 4096, "background compaction after this many commits (negative = never)")
	flag.StringVar(&c.replicateFrom, "replicate-from", "", "leader base URL; run as a read-only replication follower")
	flag.StringVar(&c.replToken, "repl-token", "", "replication token: required from followers on a leader's ship endpoints, presented to the leader by a follower")
	flag.DurationVar(&c.maxStaleness, "max-staleness", 0, "with -replicate-from: bounded-staleness budget; reads degrade to 503 when the replica cannot prove it is this fresh (0 = unbounded)")
	flag.DurationVar(&c.readAfterWait, "read-after-wait", 0, "with -replicate-from: how long a read carrying an X-Chronos-Read-After token waits for the replica to catch up before answering 503 (0 = 5s default)")
	flag.DurationVar(&c.slowOp, "slow-op", 0, "access-log slow-operation threshold (0 = 500ms default)")
	flag.Parse()

	if c.replicateFrom != "" {
		// Refuse leader-only flags loudly instead of silently ignoring
		// them: a follower bootstraps no account and installs no
		// extensions (both write), runs no watchdog, and never rotates on
		// size (segment boundaries mirror the leader's).
		incompatible := map[string]string{
			"admin":             "account bootstrap writes to the store; a follower checks sessions against the credentials replicated from its leader",
			"admin-password":    "account bootstrap writes to the store; a follower checks sessions against the credentials replicated from its leader",
			"extensions":        "installing systems writes to the store",
			"watchdog":          "job lifecycle management is the leader's job",
			"heartbeat-timeout": "job lifecycle management is the leader's job",
			"wal-segment-bytes": "follower segments mirror the leader's boundaries",
		}
		flag.Visit(func(fl *flag.Flag) {
			if why, ok := incompatible[fl.Name]; ok {
				log.Fatalf("-%s cannot be combined with -replicate-from: %s", fl.Name, why)
			}
		})
	} else if c.maxStaleness != 0 || c.readAfterWait != 0 {
		log.Fatal("-max-staleness and -read-after-wait only apply with -replicate-from: a leader is never stale")
	}
	if err := run(c); err != nil {
		log.Fatal(err)
	}
}

// run serves the assembled process on its one listener until that fails.
func run(c config) error {
	server, closeStore, err := assemble(context.Background(), c)
	if err != nil {
		return err
	}
	defer closeStore()
	log.Printf("chronos-control listening on %s (data in %s)", c.addr, c.dataDir)
	return http.ListenAndServe(c.addr, server.Handler())
}

// assemble builds the process: a store, the service over it, and the one
// HTTP edge serving the REST API and the web UI. Leader and follower are
// the same assembly. They differ in how the store is opened — a follower's
// is a repl.Follower's replica, kept converging with the leader — and in
// the steps that write, which are the leader's alone: the watchdog, the
// -admin bootstrap, the extensions. ctx bounds the watchdog; closeStore
// ends replication and closes the store.
func assemble(ctx context.Context, c config) (server *rest.Server, closeStore func() error, err error) {
	reg := metrics.NewRegistry()
	var db *relstore.DB
	var follower *repl.Follower
	if c.replicateFrom != "" {
		cfg := repl.Config{
			Dir:          c.dataDir,
			Leader:       c.replicateFrom,
			ReplToken:    c.replToken,
			CompactEvery: c.compactEvery,
			Metrics:      reg,
		}
		if c.maxStaleness > 0 {
			// Freshness is proven each time a tail poll returns; on an idle
			// leader that is once per PollWait, during which staleness grows.
			// Keep the poll cadence comfortably inside the budget, or an idle
			// system would read as degraded despite being fully caught up.
			cfg.PollWait = c.maxStaleness / 2
			log.Printf("bounded staleness: reads degrade to 503 beyond %v of unproven freshness", c.maxStaleness)
		}
		if follower, err = repl.Start(cfg); err != nil {
			return nil, nil, err
		}
		db, closeStore = follower.DB(), follower.Close
	} else {
		opts := &relstore.Options{SegmentBytes: c.segmentBytes, CompactEvery: c.compactEvery, Metrics: reg}
		if db, err = relstore.Open(c.dataDir, opts); err != nil {
			return nil, nil, err
		}
		closeStore = db.Close
	}
	defer func() {
		if err != nil {
			closeStore()
		}
	}()

	svc, err := core.NewService(db, nil)
	if err != nil {
		return nil, nil, err
	}
	server = rest.NewServer(svc)
	server.AgentToken = c.agentToken
	server.ReplToken = c.replToken // a follower's admits its own followers: replicas can be chained
	server.Registry = reg
	server.SlowOp = c.slowOp

	st := svc.Store().StorageStats()
	if follower != nil {
		log.Printf("replica recovered: %d rows in %d tables, resuming at segment %d offset %d; following %s",
			st.Rows, st.Tables, st.WALSeq, st.AppliedBytes, c.replicateFrom)
		server.Repl = follower
		server.MaxStaleness = c.maxStaleness
		server.ReadAfterWait = c.readAfterWait
	} else {
		log.Printf("store recovered: %d rows in %d tables, %d WAL segment(s), %d bytes of log",
			st.Rows, st.Tables, st.WALSegments, st.WALSizeB)
		svc.SetMetrics(reg)
		svc.HeartbeatTimeout = c.hbTimeout
		svc.StartWatchdog(ctx, c.watchdog)
		if c.adminName != "" {
			if err := bootstrapAdmin(svc, server.Auth(), c.adminName, c.adminPassword); err != nil {
				return nil, nil, err
			}
		}
		for _, dir := range splitNonEmpty(c.extensions) {
			repo, err := extension.Load(dir)
			if err != nil {
				return nil, nil, fmt.Errorf("extension %s: %w", dir, err)
			}
			if err := repo.InstallDiagrams(); err != nil {
				return nil, nil, err
			}
			systems, err := repo.InstallSystems(svc)
			if err != nil {
				return nil, nil, err
			}
			log.Printf("extension %s: %d systems installed", repo.Source(), len(systems))
		}
	}
	if server.Auth().Enabled() {
		log.Printf("session auth is on: the store holds credentials")
	}
	return server, closeStore, nil
}

// bootstrapAdmin creates the admin account once; subsequent starts only
// refresh the password.
func bootstrapAdmin(svc *core.Service, a *auth.Authenticator, name, password string) error {
	if password == "" {
		return fmt.Errorf("-admin requires -admin-password")
	}
	users, err := svc.ListUsers()
	if err != nil {
		return err
	}
	var admin *core.User
	for _, u := range users {
		if u.Name == name {
			admin = u
			break
		}
	}
	if admin == nil {
		admin, err = svc.CreateUser(name, core.RoleAdmin)
		if err != nil {
			return err
		}
	}
	return a.SetPassword(admin.ID, password)
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
