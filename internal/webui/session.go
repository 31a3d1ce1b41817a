package webui

// Session auth for the pages. The REST API refuses by role; mounted
// beside it without a gate, the UI would hand the same data and the same
// mutations (abort, reschedule, run, create) to anyone who can reach the
// port. With UI.Auth set, every page asks for the session REST asks for:
// viewer to look, member to act. A browser carries it in a cookie set by
// the login form; an API-style caller may present the bearer header
// instead.

import (
	"net/http"
	"strings"

	"chronos/internal/auth"
	"chronos/internal/core"
)

// sessionCookie holds the session token. HttpOnly keeps it from page
// scripts, and SameSite=Strict keeps another site's form from spending
// it on the POST routes.
const sessionCookie = "chronos_session"

// sessionToken returns the token the request presents: the bearer
// header, else the login cookie, else "".
func sessionToken(r *http.Request) string {
	if tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer "); ok {
		return tok
	}
	if c, err := r.Cookie(sessionCookie); err == nil {
		return c.Value
	}
	return ""
}

func setSessionCookie(w http.ResponseWriter, token string, maxAge int) {
	http.SetCookie(w, &http.Cookie{
		Name: sessionCookie, Value: token, Path: "/", MaxAge: maxAge,
		HttpOnly: true, SameSite: http.SameSiteStrictMode,
	})
}

// admit serves the login and logout routes itself and reports whether
// any other request may go on to the pages, having answered it otherwise:
// a browser's GET without a session is sent to the login form, anything
// else gets 401, and a session of too weak a role 403.
func (u *UI) admit(w http.ResponseWriter, r *http.Request) bool {
	look := r.Method == http.MethodGet || r.Method == http.MethodHead
	switch r.Method + " " + r.URL.Path {
	case "GET /login":
		u.render(w, "login", "Sign in", "")
		return false
	case "POST /login":
		sess, err := u.Auth.Login(r.PostFormValue("user"), r.PostFormValue("password"))
		if err != nil {
			w.Header().Set("Content-Type", "text/html; charset=utf-8") // render's own Set comes after the status line
			w.WriteHeader(http.StatusUnauthorized)
			u.render(w, "login", "Sign in", err.Error())
			return false
		}
		setSessionCookie(w, sess.Token, 0)
		http.Redirect(w, r, "/", http.StatusSeeOther)
		return false
	case "POST /logout":
		u.Auth.Logout(sessionToken(r))
		setSessionCookie(w, "", -1)
		http.Redirect(w, r, "/login", http.StatusSeeOther)
		return false
	}
	sess, err := u.Auth.Validate(sessionToken(r))
	if err != nil {
		if look && r.Header.Get("Authorization") == "" {
			http.Redirect(w, r, "/login", http.StatusSeeOther)
		} else {
			http.Error(w, err.Error(), http.StatusUnauthorized)
		}
		return false
	}
	role := core.RoleMember
	if look {
		role = core.RoleViewer
	}
	if err := auth.Authorize(sess, role); err != nil {
		http.Error(w, err.Error(), http.StatusForbidden)
		return false
	}
	return true
}
