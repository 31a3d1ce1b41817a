package rest

import (
	"context"
	"flag"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"chronos/internal/auth"
	"chronos/internal/core"
	"chronos/internal/params"
	"chronos/internal/relstore"
)

var update = flag.Bool("update", false, "rewrite testdata/routes.golden from the route table")

// row is one registered pattern: its line of routes.golden, "METHOD /path
// gate", and whether it is a web UI page.
type row struct {
	route
	line string
	page bool
}

func registered(s *Server) (rows []row) {
	s.each(func(pattern string, rt route, page bool) {
		rows = append(rows, row{rt, pattern + " " + string(rt.gate), page})
	})
	return rows
}

// sessionCall reports whether the route is login or logout: the non-GET
// routes that must stay open, because they start and end the sessions
// every other gate asks for.
func sessionCall(rt route) bool { return rt.path == "/login" || rt.path == "/logout" }

// target turns a row into a request path aimed at rows that exist: {id}
// becomes the id of the collection the path names, under /api/{v} or at
// the root.
func (r row) target(ids map[string]string) string {
	path := strings.TrimSuffix(strings.Fields(r.line)[1], "{$}")
	collection := 1 // "/<collection>/..."
	if r.since != "" {
		collection = 3 // "/api/vN/<collection>/..."
	}
	return strings.Replace(path, "{id}", ids[strings.Split(path, "/")[collection]], 1)
}

// demoRows creates one row of every collection a path can name and
// returns their ids by collection.
func demoRows(t *testing.T, svc *core.Service) map[string]string {
	t.Helper()
	u, err := svc.CreateUser("owner", core.RoleMember)
	if err != nil {
		t.Fatal(err)
	}
	p, err := svc.CreateProject("proj", "", u.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := svc.RegisterSystem("mongodb", "", mongoDefs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := svc.CreateDeployment(sys.ID, "d", "local", "1")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := svc.CreateExperiment(p.ID, sys.ID, "e", "", map[string][]params.Value{"threads": {params.Int(1)}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev, jobs, err := svc.CreateEvaluation(exp.ID)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"users": u.ID, "projects": p.ID, "systems": sys.ID, "deployments": dep.ID,
		"experiments": exp.ID, "evaluations": ev.ID, "jobs": jobs[0].ID,
	}
}

// TestRouteTable pins the HTTP surface: testdata/routes.golden is every
// registered pattern with its gate, API and pages alike (regenerate with
// -update), and the table obeys the rules no single handler test can see.
func TestRouteTable(t *testing.T) {
	svc, err := core.NewService(relstore.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := registered(NewServer(svc))
	var lines []string
	for _, r := range rows {
		lines = append(lines, r.line)
	}
	got := strings.Join(lines, "\n") + "\n"
	const golden = "testdata/routes.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("registered routes differ from %s (run go test -run TestRouteTable -update ./internal/rest and review the diff):\n%s", golden, got)
	}

	gates := []gate{open, viewer, view, member, admin, agent, ship}
	pages := 0
	for _, rt := range rows {
		if !slices.Contains(gates, rt.gate) {
			t.Errorf("%s: no explicit gate", rt.line)
		}
		if versioned := strings.Contains(rt.line, " /api/"); versioned != slices.Contains(APIVersions, rt.since) {
			t.Errorf("%s: since %q is not an API version (or a root route names one)", rt.line, rt.since)
		}
		if rt.page {
			pages++
		}
		if rt.method == "GET" || sessionCall(rt.route) {
			continue
		}
		if !slices.Contains([]gate{member, admin, agent, ship}, rt.gate) {
			t.Errorf("%s: a route that writes must be gated member, admin, agent or ship", rt.line)
		}
	}
	if pages < 19 {
		t.Errorf("only %d page rows: the web UI is not on the table", pages)
	}
	// Smooth evolution (paper §2.2): whatever a version serves, every
	// later version serves too, behind the same gate.
	for i, v := range APIVersions[:len(APIVersions)-1] {
		for _, line := range lines {
			next := strings.Replace(line, " /api/"+v+"/", " /api/"+APIVersions[i+1]+"/", 1)
			if next != line && !slices.Contains(lines, next) {
				t.Errorf("%s is not served under %s", line, APIVersions[i+1])
			}
		}
	}
}

// TestFollowerRefusesEveryWrite sends {} to every non-GET route of a
// follower, pages included, aimed at rows that exist: none may answer 2xx. A 400 from
// validation and a 503 from the read-only store are both refusals, and
// every 503 carries Retry-After.
func TestFollowerRefusesEveryWrite(t *testing.T) {
	fx := newSessionFixture(t)
	ids := demoRows(t, fx.leaderSvc)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := fx.follower.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
	sent := 0
	for _, rt := range registered(fx.fserver) {
		if rt.method == "GET" || sessionCall(rt.route) {
			continue
		}
		path := rt.target(ids)
		resp, err := http.Post(fx.followerTS.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		sent++
		if resp.StatusCode < 300 {
			t.Errorf("follower answered POST %s with %d", path, resp.StatusCode)
		}
		// A page's write is refused like the API's: 503, not the 500 the
		// UI's own error map used to make of a read-only store.
		if resp.StatusCode >= 500 && resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("follower answered POST %s with %d, want 503 for a refused write", path, resp.StatusCode)
		}
		if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
			t.Errorf("POST %s: 503 without Retry-After", path)
		}
		if rt.page && strings.HasSuffix(rt.path, "/abort") && resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("follower answered the page's POST %s with %d, want 503", path, resp.StatusCode)
		}
	}
	if sent < 39 {
		t.Fatalf("only %d write routes exercised", sent)
	}
}

// ask sends one request — {} for a body, without following redirects — as
// nobody, or with a session token in the bearer header or the UI's cookie,
// and returns the status and the redirect target.
func (f *fixture) ask(t *testing.T, method, path, bearer, cookie string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, f.ts.URL+path, strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if bearer != "" {
		req.Header.Set("Authorization", "Bearer "+bearer)
	}
	if cookie != "" {
		req.AddCookie(&http.Cookie{Name: auth.SessionCookie, Value: cookie})
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Location")
}

// TestAuthOnClosesEveryRoute walks the whole table — API, observability
// and pages — on a server whose store holds credentials: nobody gets past
// any gate but open, a browser's page GET is sent to the login form where
// an API call gets 401, a member's session passes exactly the gates a
// member may pass, and it does so from either carrier, header or cookie.
func TestAuthOnClosesEveryRoute(t *testing.T) {
	f := newFixture(t, true, "agent-secret")
	ids := demoRows(t, f.svc)
	_, jobs, err := f.svc.CreateEvaluation(ids["experiments"]) // untouched by the walk
	if err != nil {
		t.Fatal(err)
	}
	for name, role := range map[string]core.Role{"vera": core.RoleViewer, "max": core.RoleMember} {
		u, err := f.svc.CreateUser(name, role)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.auth.SetPassword(u.ID, name+"-password"); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := f.auth.Login("max", "max-password")
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range registered(f.server) {
		if rt.gate == open {
			continue
		}
		path := rt.target(ids)
		status, loc := f.ask(t, rt.method, path, "", "")
		if rt.page && rt.method == "GET" {
			if status != http.StatusSeeOther || loc != "/login" {
				t.Errorf("%s without a session -> %d to %q, want 303 to /login", rt.line, status, loc)
			}
		} else if status != http.StatusUnauthorized {
			t.Errorf("%s without a session -> %d, want 401", rt.line, status)
		}

		want := 0 // passes: whatever the handler answers
		switch rt.gate {
		case admin:
			want = http.StatusForbidden
		case agent, ship:
			want = http.StatusUnauthorized
		}
		for _, carrier := range []struct{ name, bearer, cookie string }{{"header", sess.Token, ""}, {"cookie", "", sess.Token}} {
			status, loc = f.ask(t, rt.method, path, carrier.bearer, carrier.cookie)
			switch {
			case want != 0 && status != want:
				t.Errorf("%s with a member session (%s) -> %d, want %d", rt.line, carrier.name, status, want)
			case want == 0 && (status == http.StatusUnauthorized || status == http.StatusForbidden || loc == "/login"):
				t.Errorf("%s with a member session (%s) refused: %d to %q", rt.line, carrier.name, status, loc)
			case want == 0 && rt.page && rt.method == "GET" && status != http.StatusOK:
				t.Errorf("%s with a member session (%s) -> %d, want 200", rt.line, carrier.name, status)
			}
		}
	}

	// A session nobody holds is refused outright, page or not: no browser
	// sends that header. A viewer looks but cannot act, on either face.
	if status, _ := f.ask(t, "GET", "/projects", "bogus", ""); status != http.StatusUnauthorized {
		t.Errorf("page with a bogus bearer -> %d, want 401, not a redirect", status)
	}
	viewer, err := f.auth.Login("vera", "vera-password")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/jobs/" + jobs[0].ID + "/abort", "/api/v2/jobs/" + jobs[0].ID + "/abort"} {
		if status, _ := f.ask(t, "POST", path, "", viewer.Token); status != http.StatusForbidden {
			t.Errorf("POST %s with a viewer session -> %d, want 403", path, status)
		}
	}
	if j, _ := f.svc.GetJob(jobs[0].ID); j.Status != core.StatusScheduled {
		t.Fatalf("refused aborts left the job %s", j.Status)
	}
	if status, loc := f.ask(t, "POST", "/jobs/"+jobs[0].ID+"/abort", "", sess.Token); status != http.StatusSeeOther || loc != "/jobs/"+jobs[0].ID {
		t.Errorf("page abort with a member session -> %d to %q, want 303 to the job", status, loc)
	}
	if j, _ := f.svc.GetJob(jobs[0].ID); j.Status != core.StatusAborted {
		t.Fatalf("member abort left the job %s", j.Status)
	}
}

// TestAuthOffServesEveryone walks the same table on a store without
// credentials and an agent token: every gate lets nobody in particular
// through, and there is no session to start — no login form to find, and
// the API's login says so.
func TestAuthOffServesEveryone(t *testing.T) {
	f := newFixture(t, false, "")
	ids := demoRows(t, f.svc)
	for _, rt := range registered(f.server) {
		if strings.HasSuffix(rt.path, "/pprof/profile") || strings.HasSuffix(rt.path, "/pprof/trace") {
			continue // open like the rest, and seconds long
		}
		status, loc := f.ask(t, rt.method, rt.target(ids), "", "")
		switch {
		case rt.path == "/login" && rt.page, rt.path == "/logout" && rt.page:
			if status != http.StatusNotFound {
				t.Errorf("%s on a store without credentials -> %d, want 404", rt.line, status)
			}
		case rt.path == "/login":
			if status != http.StatusNotImplemented {
				t.Errorf("%s on a store without credentials -> %d, want 501", rt.line, status)
			}
		case status == http.StatusUnauthorized || status == http.StatusForbidden || loc == "/login":
			t.Errorf("%s without a session refused: %d to %q", rt.line, status, loc)
		case rt.page && rt.method == "GET" && status != http.StatusOK:
			t.Errorf("%s -> %d, want 200", rt.line, status)
		}
	}
	if j, _ := f.svc.GetJob(ids["jobs"]); j.Status != core.StatusAborted {
		t.Fatalf("auth off: the walk's aborts left the job %s", j.Status)
	}
}
