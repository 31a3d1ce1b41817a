package rest

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"chronos/internal/api"
	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/relstore"
	"chronos/internal/relstore/repl"
	"chronos/pkg/client"
)

// syncBuf collects log output from concurrently serving servers.
type syncBuf struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestMetricsExposition drives a registry-wired leader through real
// traffic and pins the /metrics surface: the ship gate, the exposition
// content type, and at least ten distinct series spanning the store,
// claim, watchdog and REST layers.
func TestMetricsExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	db, err := relstore.Open(t.TempDir(), &relstore.Options{SegmentBytes: 4 << 10, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	svc, err := core.NewService(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.SetMetrics(reg)
	server := NewServer(svc)
	server.ReplToken = "scrape-secret"
	server.Logger = log.New(io.Discard, "", 0)
	server.Registry = reg
	ts := httptest.NewServer(server.Handler())
	t.Cleanup(ts.Close)

	// Commit a few rows and serve a few requests so the counters move.
	c := client.NewClient(ts.URL)
	u, err := c.CreateUser("marco", core.RoleAdmin)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateProject("obs", "", u.ID, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ListUsers(); err != nil {
		t.Fatal(err)
	}

	// The scrape shares the ship gate: no credential, no exposition.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("GET /metrics without token: %d, want 401", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set(repl.HeaderReplToken, "scrape-secret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	samples, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	byKey := map[string]float64{}
	for _, s := range samples {
		names[s.Name] = true
		key := s.Name
		if q := s.Label("quantile"); q != "" {
			key += "{q=" + q + "}"
		}
		byKey[key] = s.Value
	}
	for _, want := range []string{
		// store layer
		"chronos_store_commit_batch_seconds",
		"chronos_store_commit_batch_records",
		"chronos_store_commits_total",
		"chronos_store_wal_fsyncs_total",
		"chronos_store_commit_records_per_second",
		"chronos_store_compaction_seconds",
		"chronos_store_compactions_total",
		"chronos_store_rows",
		// claim + watchdog layer
		"chronos_jobs_claimed_total",
		"chronos_jobs_released_total",
		"chronos_watchdog_sweep_seconds",
		// REST layer
		"chronos_http_requests_total",
		"chronos_http_request_seconds",
		"chronos_http_in_flight",
	} {
		if !names[want] {
			t.Errorf("exposition is missing %s", want)
		}
	}
	if len(names) < 10 {
		t.Fatalf("only %d distinct series names, want >= 10", len(names))
	}
	if got := byKey["chronos_store_commits_total"]; got < 2 {
		t.Fatalf("chronos_store_commits_total = %v after two writes", got)
	}
	wantRows := float64(svc.Store().StorageStats().Rows)
	if got := byKey["chronos_store_rows"]; got != wantRows {
		t.Fatalf("chronos_store_rows = %v, stats say %v", got, wantRows)
	}
	// Requests were observed under their matched route patterns, not a
	// raw-path or catch-all label.
	var httpTotal, apiRouted float64
	for _, s := range samples {
		if s.Name == "chronos_http_requests_total" {
			httpTotal += s.Value
			if s.Label("route") == "unrouted" {
				t.Fatalf("request series with unrouted label: %+v", s)
			}
			if strings.Contains(s.Label("route"), "/api/") {
				apiRouted += s.Value
			}
		}
	}
	if httpTotal < 3 || apiRouted < 3 {
		t.Fatalf("http requests total %v (api-routed %v), want >= 3", httpTotal, apiRouted)
	}
}

// TestMetricsNotEnabled pins the no-registry behaviour: 404, not a panic
// and not an empty 200 a scraper would silently accept.
func TestMetricsNotEnabled(t *testing.T) {
	f := newFixture(t, false, "")
	resp, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /metrics without registry: %d, want 404", resp.StatusCode)
	}
}

// TestTraceReachesServerLog follows one trace id end to end: the SDK
// mints it per attempt, the server's access log carries it on the
// request's lines and the response echoes it; a request that brings none
// (curl) gets one minted on arrival. SlowOp < 0 makes every request a
// "slow op" so the test needs no real slowness.
func TestTraceReachesServerLog(t *testing.T) {
	var serverLog syncBuf
	f := newFixture(t, false, "")
	f.server.Logger = log.New(&serverLog, "", 0)
	f.server.SlowOp = -1
	ts := httptest.NewServer(f.server.Handler())
	t.Cleanup(ts.Close)

	if _, err := client.NewClient(ts.URL).ListUsers(); err != nil {
		t.Fatal(err)
	}
	// The access-log line is written in a deferred func that can race the
	// response by a hair, so poll briefly.
	slowLine := regexp.MustCompile(`req \d+ trace=([0-9a-f]{16}): slow op: GET /api/v\d/users`)
	deadline := time.Now().Add(5 * time.Second)
	for slowLine.FindString(serverLog.String()) == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no slow-op line carrying a minted trace id:\n%s", serverLog.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A caller's own id is used as sent and echoed; without one the server
	// mints.
	for _, sent := range []string{"feedfacecafe0001", ""} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/v2/ping", nil)
		if sent != "" {
			req.Header.Set(api.HeaderTrace, sent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get(api.HeaderTrace)
		if got == "" || (sent != "" && got != sent) {
			t.Fatalf("sent trace %q, response echoes %q", sent, got)
		}
		for !strings.Contains(serverLog.String(), "trace="+got+": GET /api/v2/ping -> 200") {
			if time.Now().After(deadline) {
				t.Fatalf("trace %s never appeared in the server log:\n%s", got, serverLog.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestPagesGoThroughTheEdge: a web UI page is served by the handler that
// serves the API, so it gets what an API call gets — a trace id echoed on
// the response, an access-log line carrying it, a chronos_http_* sample
// under its route pattern — and a handler that panics on that mux costs
// its request a 500, not the server.
func TestPagesGoThroughTheEdge(t *testing.T) {
	var serverLog syncBuf
	f := newFixture(t, false, "")
	f.server.Logger = log.New(&serverLog, "", 0)
	f.server.Registry = metrics.NewRegistry()
	f.server.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) { panic("boom") })
	ts := httptest.NewServer(f.server.Handler())
	t.Cleanup(ts.Close)

	for _, tc := range []struct {
		path string
		want int
	}{{"/boom", http.StatusInternalServerError}, {"/projects", http.StatusOK}} {
		resp, err := http.Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		trace := resp.Header.Get(api.HeaderTrace)
		if resp.StatusCode != tc.want || trace == "" {
			t.Fatalf("GET %s -> %d with trace %q, want %d and a trace id", tc.path, resp.StatusCode, trace, tc.want)
		}
		// The access-log line is written in a deferred func that can race
		// the response by a hair, so poll briefly.
		line := fmt.Sprintf("trace=%s: GET %s -> %d", trace, tc.path, tc.want)
		for deadline := time.Now().Add(5 * time.Second); !strings.Contains(serverLog.String(), line); {
			if time.Now().After(deadline) {
				t.Fatalf("no access-log line %q:\n%s", line, serverLog.String())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.Name == "chronos_http_requests_total" && s.Label("route") == "GET /projects" && s.Label("code") == "200" && s.Value == 1 {
			return
		}
	}
	t.Fatalf(`no chronos_http_requests_total{route="GET /projects",code="200"} 1 among %d samples`, len(samples))
}
