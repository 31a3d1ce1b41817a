package webui

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"chronos/internal/auth"
	"chronos/internal/core"
)

// authFixture serves the demo state behind session auth, with a viewer
// and a member account, through a client that reports redirects instead
// of following them.
type authFixture struct {
	*fixture
	ui     *UI
	ts     *httptest.Server
	client *http.Client
}

func newAuthFixture(t *testing.T) *authFixture {
	t.Helper()
	f := newFixture(t)
	a, err := auth.New(f.svc.Store().DB(), f.svc, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, role := range map[string]core.Role{"vera": core.RoleViewer, "max": core.RoleMember} {
		u, err := f.svc.CreateUser(name, role)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.SetPassword(u.ID, name+"-password"); err != nil {
			t.Fatal(err)
		}
	}
	ui, err := New(f.svc)
	if err != nil {
		t.Fatal(err)
	}
	ui.Auth = a
	ts := httptest.NewServer(ui.Handler())
	t.Cleanup(ts.Close)
	client := ts.Client()
	client.CheckRedirect = func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }
	return &authFixture{fixture: f, ui: ui, ts: ts, client: client}
}

// login signs in through the form and returns the session cookie.
func (f *authFixture) login(t *testing.T, user string) *http.Cookie {
	t.Helper()
	resp, err := f.client.PostForm(f.ts.URL+"/login", url.Values{"user": {user}, "password": {user + "-password"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther || resp.Header.Get("Location") != "/" {
		t.Fatalf("login as %s -> %d to %q, want 303 to /", user, resp.StatusCode, resp.Header.Get("Location"))
	}
	for _, c := range resp.Cookies() {
		if c.Name == sessionCookie {
			if !c.HttpOnly || c.SameSite != http.SameSiteStrictMode {
				t.Fatalf("session cookie must be HttpOnly and SameSite=Strict: %+v", c)
			}
			return c
		}
	}
	t.Fatalf("login as %s set no %s cookie", user, sessionCookie)
	return nil
}

// do issues one request, optionally with a session cookie, and returns
// the status and the redirect target.
func (f *authFixture) do(t *testing.T, method, path string, cookie *http.Cookie) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, f.ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cookie != nil {
		req.AddCookie(cookie)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Location")
}

// target turns a route pattern into a request against rows that exist.
func (f *authFixture) target(pattern string) (method, path string) {
	method, path, _ = strings.Cut(pattern, " ")
	path = strings.TrimSuffix(path, "{$}")
	ids := map[string]string{
		"projects": f.projectID, "systems": f.systemID, "experiments": f.experimentID,
		"evaluations": f.evaluationID, "jobs": f.jobIDs[0],
	}
	return method, strings.Replace(path, "{id}", ids[strings.Split(path, "/")[1]], 1)
}

// TestAuthOffServesEveryone pins the auth-less behaviour: pages and
// mutations need no session, and there is no login form to find.
func TestAuthOffServesEveryone(t *testing.T) {
	f := newFixture(t)
	f.get(t, "/", 200)
	f.get(t, "/jobs/"+f.jobIDs[0], 200)
	f.get(t, "/login", 404)
	_, jobs, err := f.svc.CreateEvaluation(f.experimentID)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.ts.Client().Post(f.ts.URL+"/jobs/"+jobs[0].ID+"/abort", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if j, _ := f.svc.GetJob(jobs[0].ID); j.Status != core.StatusAborted {
		t.Fatalf("auth off: abort without a session left the job %s", j.Status)
	}
}

// TestAuthOnClosesEveryRoute: with session auth on, every page refuses a
// request without a session — browsers' GETs go to the login form,
// anything else gets 401 and changes nothing — and serves with one.
func TestAuthOnClosesEveryRoute(t *testing.T) {
	f := newAuthFixture(t)
	_, jobs, err := f.svc.CreateEvaluation(f.experimentID)
	if err != nil {
		t.Fatal(err)
	}
	scheduled := jobs[0].ID
	member := f.login(t, "max")

	for pattern := range f.ui.routes() {
		method, path := f.target(pattern)
		status, loc := f.do(t, method, path, nil)
		if method == "GET" {
			if status != http.StatusSeeOther || loc != "/login" {
				t.Errorf("%s without a session -> %d to %q, want 303 to /login", pattern, status, loc)
			}
		} else if status != http.StatusUnauthorized {
			t.Errorf("%s without a session -> %d, want 401", pattern, status)
		}
		status, loc = f.do(t, method, path, member)
		if method == "GET" && status != http.StatusOK {
			t.Errorf("%s with a member session -> %d, want 200", pattern, status)
		}
		if status == http.StatusUnauthorized || status == http.StatusForbidden || loc == "/login" {
			t.Errorf("%s with a member session refused: %d to %q", pattern, status, loc)
		}
	}

	// Strangers and viewers cannot act; members can.
	if status, _ := f.do(t, "POST", "/jobs/"+scheduled+"/abort", nil); status != http.StatusUnauthorized {
		t.Fatalf("abort without a session -> %d, want 401", status)
	}
	if status, _ := f.do(t, "POST", "/jobs/"+scheduled+"/abort", f.login(t, "vera")); status != http.StatusForbidden {
		t.Fatalf("abort with a viewer session -> %d, want 403", status)
	}
	if j, _ := f.svc.GetJob(scheduled); j.Status != core.StatusScheduled {
		t.Fatalf("refused aborts left the job %s", j.Status)
	}
	if status, _ := f.do(t, "POST", "/jobs/"+scheduled+"/abort", member); status != http.StatusSeeOther {
		t.Fatalf("abort with a member session -> %d, want 303", status)
	}
	if j, _ := f.svc.GetJob(scheduled); j.Status != core.StatusAborted {
		t.Fatalf("member abort left the job %s", j.Status)
	}
}

// TestLoginLogout covers the session's two ends: a wrong password opens
// nothing, the bearer header works where the cookie does, and a
// signed-out cookie is dead.
func TestLoginLogout(t *testing.T) {
	f := newAuthFixture(t)
	if status, _ := f.do(t, "GET", "/login", nil); status != http.StatusOK {
		t.Fatalf("login form -> %d", status)
	}
	resp, err := f.client.PostForm(f.ts.URL+"/login", url.Values{"user": {"max"}, "password": {"wrong"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized || len(resp.Cookies()) != 0 {
		t.Fatalf("wrong password -> %d with cookies %v", resp.StatusCode, resp.Cookies())
	}

	cookie := f.login(t, "max")
	req, _ := http.NewRequest("GET", f.ts.URL+"/projects", nil)
	req.Header.Set("Authorization", "Bearer "+cookie.Value)
	if resp, err = f.client.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bearer session -> %d, want 200", resp.StatusCode)
	}
	req.Header.Set("Authorization", "Bearer bogus")
	if resp, err = f.client.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bogus bearer -> %d, want 401 (not a redirect: no browser sends that header)", resp.StatusCode)
	}

	if status, loc := f.do(t, "POST", "/logout", cookie); status != http.StatusSeeOther || loc != "/login" {
		t.Fatalf("logout -> %d to %q", status, loc)
	}
	if status, loc := f.do(t, "GET", "/projects", cookie); status != http.StatusSeeOther || loc != "/login" {
		t.Fatalf("signed-out cookie -> %d to %q, want 303 to /login", status, loc)
	}
}
