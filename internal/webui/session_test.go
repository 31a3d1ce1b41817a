package webui_test

import (
	"net/http"
	"net/url"
	"testing"

	"chronos/internal/auth"
	"chronos/internal/core"
)

// authFixture serves the demo state from a store that holds credentials,
// with a viewer and a member account, through a client that reports
// redirects instead of following them. Which request passes which gate is
// the edge's business and tested there, over the whole route table
// (internal/rest's TestAuthOnClosesEveryRoute, TestAuthOffServesEveryone);
// what is the UI's own is the form that starts a session and the button
// that ends one.
type authFixture struct {
	*fixture
	client *http.Client
}

func newAuthFixture(t *testing.T) *authFixture {
	t.Helper()
	f := newFixture(t)
	for name, role := range map[string]core.Role{"vera": core.RoleViewer, "max": core.RoleMember} {
		u, err := f.svc.CreateUser(name, role)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.server.Auth().SetPassword(u.ID, name+"-password"); err != nil {
			t.Fatal(err)
		}
	}
	client := f.ts.Client()
	client.CheckRedirect = func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }
	return &authFixture{fixture: f, client: client}
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
		if c.Name == auth.SessionCookie {
			if !c.HttpOnly || c.SameSite != http.SameSiteStrictMode {
				t.Fatalf("session cookie must be HttpOnly and SameSite=Strict: %+v", c)
			}
			return c
		}
	}
	t.Fatalf("login as %s set no %s cookie", user, auth.SessionCookie)
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
