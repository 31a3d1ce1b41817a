// Command chronos-control runs the Chronos Control server: the REST API
// (paper §2.2) and the web UI on one address, backed by a durable
// embedded store.
//
// Usage:
//
//	chronos-control -addr :8080 -data ./chronos-data \
//	    [-agent-token SECRET] [-admin NAME -admin-password PW]
//
// With -admin/-admin-password set, session authentication is enabled and
// the named admin account is bootstrapped on first start; without them
// the API is open (convenient for local demos, like the original
// installation script's default).
//
// With -replicate-from set, the process runs as a read-only replication
// follower instead: it bootstraps its store from the leader's snapshot,
// replays and tails the leader's WAL over HTTP, and serves the viewer
// (GET) REST endpoints and the web UI from the replica — scaling the
// read path horizontally while all writes stay on the leader. Write
// endpoints answer 503 with a read-only error.
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
	"chronos/internal/webui"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address for REST API and web UI")
		dataDir       = flag.String("data", "chronos-data", "directory for the embedded store")
		agentToken    = flag.String("agent-token", "", "shared token agents must present (empty = open)")
		adminName     = flag.String("admin", "", "bootstrap admin user name (enables session auth)")
		adminPassword = flag.String("admin-password", "", "bootstrap admin password")
		extensions    = flag.String("extensions", "", "comma-separated extension repository directories")
		watchdog      = flag.Duration("watchdog", 10*time.Second, "heartbeat watchdog interval")
		hbTimeout     = flag.Duration("heartbeat-timeout", 60*time.Second, "running-job heartbeat timeout")
		segmentBytes  = flag.Int64("wal-segment-bytes", 4<<20, "WAL segment rotation threshold in bytes")
		compactEvery  = flag.Int("compact-every", 4096, "background compaction after this many commits (negative = never)")
		replicateFrom = flag.String("replicate-from", "", "leader base URL; run as a read-only replication follower")
		replToken     = flag.String("repl-token", "", "replication token: required from followers on a leader's ship endpoints, presented to the leader by a follower")
		sessionAuth   = flag.Bool("session-auth", false, "with -replicate-from: require sessions, validated against the credentials replicated from the leader")
		maxStaleness  = flag.Duration("max-staleness", 0, "with -replicate-from: bounded-staleness budget; reads degrade to 503 when the replica cannot prove it is this fresh (0 = unbounded)")
		readAfterWait = flag.Duration("read-after-wait", 0, "with -replicate-from: how long a read carrying an X-Chronos-Read-After token waits for the replica to catch up before answering 503 (0 = 5s default)")
		slowOp        = flag.Duration("slow-op", 0, "access-log slow-operation threshold (0 = 500ms default)")
	)
	flag.Parse()

	if *replicateFrom != "" {
		// Refuse leader-only flags loudly instead of silently ignoring
		// them: a follower runs no auth bootstrap (sessions live on the
		// leader), installs no extensions and runs no watchdog (both
		// write), and never rotates on size (segment boundaries mirror
		// the leader's).
		incompatible := map[string]string{
			"admin":             "account bootstrap writes to the store; use -session-auth to validate against replicated credentials",
			"admin-password":    "account bootstrap writes to the store; use -session-auth to validate against replicated credentials",
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
		if err := runFollower(*addr, *dataDir, *replicateFrom, *agentToken, *replToken, *compactEvery, *sessionAuth, *maxStaleness, *readAfterWait, *slowOp); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *sessionAuth {
		log.Fatal("-session-auth only applies with -replicate-from; use -admin/-admin-password on a leader")
	}
	if *maxStaleness != 0 || *readAfterWait != 0 {
		log.Fatal("-max-staleness and -read-after-wait only apply with -replicate-from: a leader is never stale")
	}
	storeOpts := &relstore.Options{SegmentBytes: *segmentBytes, CompactEvery: *compactEvery}
	if err := run(*addr, *dataDir, *agentToken, *replToken, *adminName, *adminPassword, *extensions, *watchdog, *hbTimeout, *slowOp, storeOpts); err != nil {
		log.Fatal(err)
	}
}

// runFollower runs the read-only replica: a repl.Follower keeps the
// local store converging with the leader while the REST API and web UI
// serve reads from it. No watchdog runs here — job lifecycle management
// is the leader's job, and so is every write, an agent's claim included.
func runFollower(addr, dataDir, leader, agentToken, replToken string, compactEvery int, sessionAuth bool, maxStaleness, readAfterWait, slowOp time.Duration) error {
	reg := metrics.NewRegistry()
	cfg := repl.Config{
		Dir:          dataDir,
		Leader:       leader,
		ReplToken:    replToken,
		CompactEvery: compactEvery,
		Metrics:      reg,
	}
	if maxStaleness > 0 {
		// Freshness is proven each time a tail poll returns; on an idle
		// leader that is once per PollWait, during which staleness grows.
		// Keep the poll cadence comfortably inside the budget, or an idle
		// system would read as degraded despite being fully caught up.
		cfg.PollWait = maxStaleness / 2
	}
	f, err := repl.Start(cfg)
	if err != nil {
		return err
	}
	defer f.Close()

	svc := core.NewFollowerService(f.DB(), nil)
	st := svc.Store().StorageStats()
	log.Printf("replica recovered: %d rows in %d tables, resuming at segment %d offset %d",
		st.Rows, st.Tables, st.WALSeq, st.AppliedBytes)

	server := rest.NewServer(svc)
	server.AgentToken = agentToken
	server.ReplToken = replToken // replicas can be chained
	server.Repl = f
	server.MaxStaleness = maxStaleness
	server.ReadAfterWait = readAfterWait
	server.Registry = reg
	server.SlowOp = slowOp
	if maxStaleness > 0 {
		log.Printf("bounded staleness: reads degrade to 503 beyond %v of unproven freshness", maxStaleness)
	}

	if sessionAuth {
		// Logins verify against the credentials replicated from the
		// leader (auth.Login only reads); without this flag, a follower
		// of an auth-enabled leader would serve all replicated data
		// openly.
		a, err := auth.New(f.DB(), svc, nil)
		if err != nil {
			return err
		}
		server.Auth = a
		log.Printf("session auth enabled against replicated credentials")
	}

	log.Printf("chronos-control follower listening on %s (replica of %s in %s)", addr, leader, dataDir)
	return serve(addr, server, svc)
}

// serve runs the process's one listener until it fails; leader and
// follower share it.
func serve(addr string, server *rest.Server, svc *core.Service) error {
	h, err := mount(server, svc)
	if err != nil {
		return err
	}
	return http.ListenAndServe(addr, h)
}

// mount puts the REST API and the web UI on one handler.
func mount(server *rest.Server, svc *core.Service) (http.Handler, error) {
	ui, err := webui.New(svc)
	if err != nil {
		return nil, err
	}
	// The pages sit behind the same sessions as the API: a leader started
	// with -admin, or a follower with -session-auth, serves neither to
	// strangers.
	ui.Auth = server.Auth
	mux := http.NewServeMux()
	api := server.Handler()
	mux.Handle("/api/", api)
	// Observability endpoints live at the root, beside the UI: route them
	// to the REST handler (which gates them) rather than the page mux.
	mux.Handle("GET /metrics", api)
	mux.Handle("/debug/pprof/", api)
	mux.Handle("/", ui.Handler())
	return mux, nil
}

func run(addr, dataDir, agentToken, replToken, adminName, adminPassword, extensions string, watchdog, hbTimeout, slowOp time.Duration, storeOpts *relstore.Options) error {
	reg := metrics.NewRegistry()
	storeOpts.Metrics = reg
	db, err := relstore.Open(dataDir, storeOpts)
	if err != nil {
		return err
	}
	defer db.Close()

	svc, err := core.NewService(db, nil)
	if err != nil {
		return err
	}
	svc.SetMetrics(reg)
	st := svc.Store().StorageStats()
	log.Printf("store recovered: %d rows in %d tables, %d WAL segment(s), %d bytes of log",
		st.Rows, st.Tables, st.WALSegments, st.WALSizeB)
	svc.HeartbeatTimeout = hbTimeout
	svc.StartWatchdog(context.Background(), watchdog)

	server := rest.NewServer(svc)
	server.AgentToken = agentToken
	server.ReplToken = replToken
	server.Registry = reg
	server.SlowOp = slowOp

	if adminName != "" {
		if adminPassword == "" {
			return fmt.Errorf("-admin requires -admin-password")
		}
		a, err := auth.New(db, svc, nil)
		if err != nil {
			return err
		}
		server.Auth = a
		if err := bootstrapAdmin(svc, a, adminName, adminPassword); err != nil {
			return err
		}
		log.Printf("session auth enabled; admin account %q ready", adminName)
	}

	for _, dir := range splitNonEmpty(extensions) {
		repo, err := extension.Load(dir)
		if err != nil {
			return fmt.Errorf("extension %s: %w", dir, err)
		}
		if err := repo.InstallDiagrams(); err != nil {
			return err
		}
		systems, err := repo.InstallSystems(svc)
		if err != nil {
			return err
		}
		log.Printf("extension %s: %d systems installed", repo.Source(), len(systems))
	}

	log.Printf("chronos-control listening on %s (data in %s)", addr, dataDir)
	return serve(addr, server, svc)
}

// bootstrapAdmin creates the admin account once; subsequent starts only
// refresh the password.
func bootstrapAdmin(svc *core.Service, a *auth.Authenticator, name, password string) error {
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
