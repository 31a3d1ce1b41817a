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

	"chronos/internal/core"
	"chronos/internal/params"
	"chronos/internal/relstore"
)

var update = flag.Bool("update", false, "rewrite testdata/routes.golden from the route table")

// registered is one line of routes.golden: "METHOD /path gate".
func registered(s *Server) (lines []string, routes []route) {
	s.each(func(pattern string, rt route) {
		lines = append(lines, pattern+" "+string(rt.gate))
		routes = append(routes, rt)
	})
	return lines, routes
}

// sessionCall reports whether the route is login or logout: the two
// non-GET routes that must stay open, because they start and end the
// sessions every other gate asks for.
func sessionCall(rt route) bool { return rt.path == "/login" || rt.path == "/logout" }

// TestRouteTable pins the API surface: testdata/routes.golden is every
// registered pattern with its gate (regenerate with -update), and the
// table obeys the rules no single handler test can see.
func TestRouteTable(t *testing.T) {
	svc, err := core.NewService(relstore.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	lines, routes := registered(NewServer(svc))
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
	for i, rt := range routes {
		line := lines[i]
		if !slices.Contains(gates, rt.gate) {
			t.Errorf("%s: no explicit gate", line)
		}
		if versioned := strings.Contains(line, " /api/"); versioned != slices.Contains(APIVersions, rt.since) {
			t.Errorf("%s: since %q is not an API version (or a root route names one)", line, rt.since)
		}
		if rt.method == "GET" || sessionCall(rt) {
			continue
		}
		if !slices.Contains([]gate{member, admin, agent, ship}, rt.gate) {
			t.Errorf("%s: a route that writes must be gated member, admin, agent or ship", line)
		}
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
// follower, aimed at rows that exist: none may answer 2xx. A 400 from
// validation and a 503 from the read-only store are both refusals, and
// every 503 carries Retry-After.
func TestFollowerRefusesEveryWrite(t *testing.T) {
	fx := newSessionFixture(t)
	svc := fx.leaderSvc
	users, err := svc.ListUsers()
	if err != nil {
		t.Fatal(err)
	}
	p, err := svc.CreateProject("proj", "", users[0].ID, nil)
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
	_, jobs, err := svc.CreateEvaluation(exp.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := fx.follower.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
	ids := map[string]string{"projects": p.ID, "deployments": dep.ID, "experiments": exp.ID, "jobs": jobs[0].ID}

	lines, routes := registered(fx.fserver)
	sent := 0
	for i, rt := range routes {
		if rt.method == "GET" || sessionCall(rt) {
			continue
		}
		pattern := strings.Fields(lines[i])[1] // "/api/vN/<collection>/..."
		path := strings.Replace(pattern, "{id}", ids[strings.Split(pattern, "/")[3]], 1)
		resp, err := http.Post(fx.followerTS.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		sent++
		if resp.StatusCode < 300 {
			t.Errorf("follower answered POST %s with %d", path, resp.StatusCode)
		}
		if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
			t.Errorf("POST %s: 503 without Retry-After", path)
		}
	}
	if sent < 35 {
		t.Fatalf("only %d write routes exercised", sent)
	}
}
