// Package rest is Chronos Control's HTTP edge: the versioned RESTful web
// service (paper §2.2) through which agents fetch job descriptions and
// upload results and external tooling (build bots, CLIs) schedules and
// inspects evaluations, and the web UI's pages beside it. Both are rows of
// one route table, so who may see what, and how a refusal or an error is
// answered, is decided in one place (see routes).
//
// Two API versions are served simultaneously, /api/v1 and /api/v2,
// demonstrating the paper's smooth-evolution requirement: "new clients
// [can] simultaneously use the newly developed features while other
// clients still use older versions of the REST API". v2 extends v1's
// claim response with the system's parameter definitions (saving agents a
// round-trip) and adds a batched status update endpoint.
//
// An agent's steady state is one request per job on either version:
// complete takes an optional claimNext (a deployment id) and then answers
// with that deployment's next job, claimed in the completing transaction —
// the claim response of the version asked, v2's with the definitions. POST
// /jobs/claim remains for the first job, for polling an empty queue and
// after a fail; POST /jobs/{id}/release hands back a job claimed ahead
// that the agent will not run, attempt not spent.
package rest

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"slices"
	"time"

	"chronos/internal/api"
	"chronos/internal/auth"
	"chronos/internal/core"
	"chronos/internal/httputil"
	"chronos/internal/metrics"
	"chronos/internal/relstore"
	"chronos/internal/relstore/repl"
	"chronos/internal/webui"
)

// APIVersions lists the versions this server speaks, newest last.
var APIVersions = []string{"v1", "v2"}

// Server exposes a core.Service over HTTP.
type Server struct {
	svc *core.Service
	// auth holds the sessions. Session auth is no setting: it is on exactly
	// when the store holds credentials (auth.Authenticator.Enabled).
	auth *auth.Authenticator
	// AgentToken, when non-empty, is required from agents in the
	// X-Chronos-Agent-Token header on job execution endpoints.
	AgentToken string
	// ReplToken, when non-empty, admits replication followers to the
	// WAL-shipping endpoints via the X-Chronos-Repl-Token header. It is
	// deliberately separate from AgentToken: shipping exposes the whole
	// store byte-for-byte — including the credentials table — which job
	// execution endpoints never do.
	ReplToken string
	// Logger receives the access log; nil uses the default logger.
	Logger *log.Logger
	// Repl, when non-nil, marks this server a read-only replication
	// follower and supplies its progress for GET /api/{v}/status.
	// Leaders leave it nil.
	Repl ReplStatusProvider
	// ReadAfterWait bounds how long a follower holds a read that carries
	// an X-Chronos-Read-After token it has not yet applied up to, before
	// answering 503 + Retry-After. Zero means the 5s default.
	ReadAfterWait time.Duration
	// MaxStaleness is the follower's bounded-staleness serving budget:
	// when the follower cannot prove it caught up with the leader within
	// this window, data reads degrade to 503 + Retry-After rather than
	// serve arbitrarily stale state. Zero means unbounded (serve always).
	MaxStaleness time.Duration
	// Registry, when non-nil, is rendered at GET /metrics (Prometheus
	// text exposition) and feeds the per-route request metrics. The
	// field is read per request, so it may be assigned any time before
	// Handler() is called.
	Registry *metrics.Registry
	// SlowOp is the access log's slow-operation threshold; zero takes
	// the 500ms default, negative flags every request (tests).
	SlowOp time.Duration

	mux *http.ServeMux
}

// ReplStatusProvider reports replication progress; satisfied by
// *repl.Follower.
type ReplStatusProvider interface {
	Status() api.ReplStatus
}

// NewServer builds the HTTP handler around the service.
func NewServer(svc *core.Service) *Server {
	s := &Server{svc: svc, auth: auth.New(svc, nil), mux: http.NewServeMux()}
	s.routes()
	return s
}

// Auth returns the server's authenticator: passwords set through it are
// the credentials that turn session auth on.
func (s *Server) Auth() *auth.Authenticator { return s.auth }

// Handler returns the root handler including middleware: trace-id
// install/echo, access + slow-op logging and, when Registry is set,
// per-route request metrics.
func (s *Server) Handler() http.Handler {
	al := httputil.AccessLog{
		Logger:  s.Logger,
		SlowOp:  s.SlowOp,
		Metrics: httputil.NewRequestMetrics(s.Registry),
	}
	return al.Wrap(s.withCommitPosition(s.mux))
}

// gate names who may call a route. Every route states one; there is no
// default, and a route whose gate is unknown serves nobody.
type gate string

const (
	// open: anyone. Ping, and login/logout — a session cannot be required
	// of the calls that start and end one.
	open gate = "open"
	// viewer, member, admin: a session of at least that role — presented as
	// a bearer header or as the UI's login cookie — when the store holds
	// credentials; while it holds none every caller counts as admin.
	viewer gate = "viewer"
	member gate = "member"
	admin  gate = "admin"
	// view gates data reads: viewer plus, on followers, the session
	// guarantees (staleness budget + X-Chronos-Read-After, see readable).
	view gate = "view"
	// agent: the shared agent token, when one is configured.
	agent gate = "agent"
	// ship: the replication token or an admin session (see refusal).
	ship gate = "ship"
)

// route is one line of the API surface.
type route struct {
	// since is the first entry of APIVersions that serves the route; every
	// later version serves it too. Root routes, outside /api/{v}, leave it
	// empty.
	since        string
	method, path string
	gate         gate
	handler      http.HandlerFunc
}

// api is the versioned API, stated once: the routes served under
// /api/{v}, for v and every later version from each route's since on.
// internal/rest/testdata/routes.golden lists what this expands to.
func (s *Server) api(v string) []route {
	svc := s.svc
	wal := repl.NewHandler(svc.Store().DB())
	return []route{
		{"v1", "GET", "/ping", open, s.handlePing(v)},
		// Status stays on the bare viewer gate, not view — it must keep
		// answering precisely when the follower is degraded.
		{"v1", "GET", "/status", viewer, s.handleStatus},

		// WAL shipping (replication followers). Works on leaders and on
		// followers alike — a follower's segments mirror the leader's, so
		// replicas can be chained. A chained follower fails closed while
		// its upstream re-bootstraps: the upstream names no generation
		// then, and the follower refuses its responses until it does.
		{"v1", "GET", "/repl/status", ship, wal.Status},
		{"v1", "GET", "/repl/snapshot", ship, wal.Snapshot},
		{"v1", "GET", "/repl/wal/{seq}", ship, wal.WAL},

		// Session management.
		{"v1", "POST", "/login", open, s.handleLogin},
		{"v1", "POST", "/logout", open, s.handleLogout},

		// Users (admin).
		{"v1", "POST", "/users", admin, body(http.StatusCreated, s.createUser)},
		{"v1", "GET", "/users", view, all(svc.ListUsers)},
		{"v1", "GET", "/users/{id}", view, byID(svc.GetUser)},

		// Projects.
		{"v1", "POST", "/projects", member, body(http.StatusCreated, s.createProject)},
		{"v1", "GET", "/projects", view, all(svc.ListProjects)},
		{"v1", "GET", "/projects/{id}", view, byID(svc.GetProject)},
		{"v1", "POST", "/projects/{id}/archive", member, act("archived", svc.ArchiveProject)},
		{"v1", "GET", "/projects/{id}/export", view, s.handleExportProject},
		{"v1", "POST", "/projects/{id}/members", member, body(http.StatusOK, s.addProjectMember)},

		// Systems.
		{"v1", "POST", "/systems", member, body(http.StatusCreated, s.registerSystem)},
		{"v1", "GET", "/systems", view, all(svc.ListSystems)},
		{"v1", "GET", "/systems/{id}", view, byID(svc.GetSystem)},

		// Deployments.
		{"v1", "POST", "/deployments", member, body(http.StatusCreated, s.createDeployment)},
		{"v1", "GET", "/deployments", view, byQuery("system", svc.ListDeployments)},
		{"v1", "POST", "/deployments/{id}/active", member, body(http.StatusOK, s.setDeploymentActive)},

		// Experiments.
		{"v1", "POST", "/experiments", member, body(http.StatusCreated, s.createExperiment)},
		{"v1", "GET", "/experiments", view, byQuery("project", svc.ListExperiments)},
		{"v1", "GET", "/experiments/{id}", view, byID(svc.GetExperiment)},
		{"v1", "POST", "/experiments/{id}/archive", member, act("archived", svc.ArchiveExperiment)},

		// Evaluations. POST is also the build-bot scheduling hook.
		{"v1", "POST", "/evaluations", member, body(http.StatusCreated, s.createEvaluation)},
		{"v1", "GET", "/evaluations", view, byQuery("experiment", svc.ListEvaluations)},
		{"v1", "GET", "/evaluations/{id}", view, byID(svc.GetEvaluation)},
		{"v1", "GET", "/evaluations/{id}/status", view, byID(svc.EvaluationStatusOf)},
		{"v1", "GET", "/evaluations/{id}/jobs", view, byID(svc.ListJobs)},

		// Job management (UI side). A static job's phases are an empty list.
		{"v1", "GET", "/jobs/{id}", view, byID(svc.GetJob)},
		{"v1", "POST", "/jobs/{id}/abort", member, act("aborted", svc.AbortJob)},
		{"v1", "POST", "/jobs/{id}/reschedule", member, act("rescheduled", svc.RescheduleJob)},
		{"v1", "GET", "/jobs/{id}/result", view, byID(svc.GetJobResult)},
		{"v1", "GET", "/jobs/{id}/phases", view, byID(svc.JobPhaseResults)},
		{"v1", "GET", "/jobs/{id}/logs", view, byID(svc.JobLogs)},
		{"v1", "GET", "/jobs/{id}/timeline", view, byID(svc.JobTimeline)},

		// Job execution (agent side).
		{"v1", "POST", "/jobs/claim", agent, body(http.StatusOK, s.claim(v))},
		{"v1", "POST", "/jobs/{id}/progress", agent, body(http.StatusOK, s.progress)},
		{"v1", "POST", "/jobs/{id}/heartbeat", agent, byID(s.heartbeat)},
		{"v1", "POST", "/jobs/{id}/log", agent, body(http.StatusOK, s.appendLog)},
		{"v1", "POST", "/jobs/{id}/complete", agent, body(http.StatusOK, s.complete(v))},
		{"v1", "POST", "/jobs/{id}/fail", agent, body(http.StatusOK, s.failJob)},
		// Hand-back of a job claimed ahead (complete's claimNext) and never
		// started: running -> scheduled, attempt not spent.
		{"v1", "POST", "/jobs/{id}/release", agent, act("released", svc.ReleaseJob)},
		// Batched agent update: log + progress-or-heartbeat in one call.
		{"v2", "POST", "/jobs/{id}/update", agent, body(http.StatusOK, s.batchUpdate)},
	}
}

// root is the observability surface, outside the versioned API. /metrics
// shares the ship gate: scraping exposes operational detail (row counts,
// per-route traffic) that belongs to operators, and every deployment that
// wires a follower already holds the repl token — so one credential
// covers both servers of a pair. /debug/pprof is admin-only: profiles can
// capture memory contents, a strictly stronger exposure than counters.
func (s *Server) root() []route {
	return []route{
		{"", "GET", "/metrics", ship, s.handleMetrics},
		{"", "GET", "/debug/pprof/", admin, pprof.Index},
		{"", "GET", "/debug/pprof/cmdline", admin, pprof.Cmdline},
		{"", "GET", "/debug/pprof/profile", admin, pprof.Profile},
		{"", "GET", "/debug/pprof/symbol", admin, pprof.Symbol},
		{"", "GET", "/debug/pprof/trace", admin, pprof.Trace},
	}
}

// pages are the web UI's rows: what webui.Pages lists, each behind the
// gate it names, its error answered through fail like an adapter's.
func (s *Server) pages() []route {
	var rows []route
	for _, p := range webui.Pages(s.svc, s.auth) {
		rows = append(rows, route{"", p.Method, p.Path, gate(p.Gate), func(w http.ResponseWriter, r *http.Request) {
			if err := p.Serve(w, r); err != nil {
				fail(w, err)
			}
		}})
	}
	return rows
}

// each visits every pattern the server registers: the versioned table
// once per entry of APIVersions, then the root routes, then the pages.
func (s *Server) each(visit func(pattern string, rt route, page bool)) {
	for i, v := range APIVersions {
		for _, rt := range s.api(v) {
			if slices.Index(APIVersions, rt.since) <= i {
				visit(rt.method+" /api/"+v+rt.path, rt, false)
			}
		}
	}
	for _, rt := range s.root() {
		visit(rt.method+" "+rt.path, rt, false)
	}
	for _, rt := range s.pages() {
		visit(rt.method+" "+rt.path, rt, true)
	}
}

// routes wires the table onto the mux, each handler behind its gate. The
// closure is the one door: an API call and a page alike are admitted or
// refused, held for a follower's freshness, and — through Handler's
// middleware — traced, logged, counted and recovered here and nowhere
// else. A page differs in one answer: a browser that merely has no
// session yet is sent to the login form.
func (s *Server) routes() {
	s.each(func(pattern string, rt route, page bool) {
		s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			if status, err := s.refusal(rt.gate, r); err != nil {
				browsing := r.Method == http.MethodGet || r.Method == http.MethodHead
				if page && status == http.StatusUnauthorized && browsing && r.Header.Get("Authorization") == "" {
					http.Redirect(w, r, "/login", http.StatusSeeOther)
					return
				}
				httputil.WriteError(w, status, err)
				return
			}
			if rt.gate == view && !s.readable(w, r) {
				return
			}
			rt.handler(w, r)
		})
	})
}

// handleMetrics renders the registry in Prometheus text exposition
// format 0.0.4. 404 when the server runs without a registry.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.Registry == nil {
		httputil.WriteError(w, http.StatusNotFound, errors.New("rest: metrics not enabled"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.Registry.WritePrometheus(w)
}

// --- gates ---

// require checks the request's session against a role; while the store
// holds no credentials every caller passes.
func (s *Server) require(role core.Role, r *http.Request) (int, error) {
	if !s.auth.Enabled() {
		return 0, nil
	}
	sess, err := s.auth.Validate(auth.RequestToken(r)) // no token is no session
	if err != nil {
		return http.StatusUnauthorized, err
	}
	if err := auth.Authorize(sess, role); err != nil {
		return http.StatusForbidden, err
	}
	return 0, nil
}

// refusal is the one place a request is turned away for who sent it: it
// returns the status and error to answer with, or a nil error when the
// request may pass gate g.
func (s *Server) refusal(g gate, r *http.Request) (int, error) {
	switch g {
	case open:
		return 0, nil
	case viewer, view:
		return s.require(core.RoleViewer, r)
	case member:
		return s.require(core.RoleMember, r)
	case admin:
		return s.require(core.RoleAdmin, r)
	case agent:
		if s.AgentToken != "" && r.Header.Get("X-Chronos-Agent-Token") != s.AgentToken {
			return http.StatusUnauthorized, errors.New("rest: invalid agent token")
		}
		return 0, nil
	case ship:
		// Shipping streams the whole store byte-for-byte — including the
		// auth credentials table, which no viewer- or agent-facing endpoint
		// exposes — so the gate is strict: the dedicated replication token,
		// or an admin session. Only on a server with no auth mechanism at
		// all (no repl token, no agent token, no credentials — the open
		// local-demo configuration) is shipping open like everything else.
		if s.ReplToken != "" && r.Header.Get(repl.HeaderReplToken) == s.ReplToken {
			return 0, nil
		}
		if s.auth.Enabled() {
			if _, err := s.require(core.RoleAdmin, r); err == nil {
				return 0, nil
			}
		} else if s.ReplToken == "" && s.AgentToken == "" {
			return 0, nil
		}
		return http.StatusUnauthorized, errors.New("rest: replication requires the replication token or an admin session")
	}
	return http.StatusInternalServerError, fmt.Errorf("rest: route has no gate (%q)", g)
}

// fail answers a service error, an adapter's or a page's: it is the one
// map from errors onto HTTP status codes.
func fail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, core.ErrNotFound):
		httputil.WriteError(w, http.StatusNotFound, err)
	case errors.Is(err, core.ErrInvalidTransition), errors.Is(err, core.ErrArchived),
		errors.Is(err, core.ErrInactiveDeployment):
		httputil.WriteError(w, http.StatusConflict, err)
	case errors.Is(err, relstore.ErrReadOnly):
		// This server is a replication follower: writes — an agent's
		// claim among them — belong on the leader. 503 tells
		// well-behaved clients to go there rather than retry here.
		writeUnavailable(w, err)
	case errors.Is(err, relstore.ErrWALFailed):
		// The store could not make a write durable and refuses writes
		// until it is reopened: the server's fault, not the request's.
		httputil.WriteError(w, http.StatusInternalServerError, err)
	default:
		httputil.WriteError(w, http.StatusBadRequest, err)
	}
}

// --- handlers with logic of their own (the rest are adapters, see
// handlers.go) ---

func (s *Server) handlePing(version string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		httputil.WriteJSON(w, http.StatusOK, api.PingResponse{
			Service: "chronos-control", Version: version, Versions: APIVersions,
		})
	}
}

// handleStatus reports storage-level counters (segments, walSeq,
// snapshot boundary, compactions) plus replication progress when this
// server is a follower.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	resp := api.ServerStatusResponse{
		Service: "chronos-control",
		Mode:    "leader",
		Storage: s.svc.Store().StorageStats(),
	}
	if s.Repl != nil {
		rs := s.Repl.Status()
		resp.Mode = "follower"
		if s.MaxStaleness > 0 {
			rs.MaxStalenessMs = s.MaxStaleness.Milliseconds()
			rs.Degraded = rs.StalenessMs < 0 || rs.StalenessMs > rs.MaxStalenessMs
		}
		resp.Repl = &rs
	}
	httputil.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	if !s.auth.Enabled() {
		httputil.WriteError(w, http.StatusNotImplemented, errors.New("rest: auth disabled: the store holds no credentials"))
		return
	}
	var req api.LoginRequest
	if !decode(w, r, &req) {
		return
	}
	sess, err := s.auth.Login(req.User, req.Password)
	if err != nil {
		httputil.WriteError(w, http.StatusUnauthorized, err)
		return
	}
	httputil.WriteJSON(w, http.StatusOK, api.LoginResponse{Token: sess.Token, UserID: sess.UserID, Role: sess.Role})
}

func (s *Server) handleLogout(w http.ResponseWriter, r *http.Request) {
	s.auth.Logout(auth.RequestToken(r))
	httputil.WriteJSON(w, http.StatusOK, "ok")
}
