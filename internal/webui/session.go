package webui

// The session's two ends, for browsers. The edge asks every page for the
// session it asks the REST API for and reads it from the bearer header or
// from the cookie the login form sets here; without credentials in the
// store there are no sessions, and no login form to find.

import (
	"net/http"

	"chronos/internal/auth"
)

func setSessionCookie(w http.ResponseWriter, token string, maxAge int) {
	http.SetCookie(w, &http.Cookie{
		Name: auth.SessionCookie, Value: token, Path: "/", MaxAge: maxAge,
		HttpOnly: true, SameSite: http.SameSiteStrictMode,
	})
}

// ifSessions serves a session route only while session auth is on.
func (u *ui) ifSessions(serve func(http.ResponseWriter, *http.Request) error) func(http.ResponseWriter, *http.Request) error {
	return func(w http.ResponseWriter, r *http.Request) error {
		if !u.auth.Enabled() {
			http.NotFound(w, r)
			return nil
		}
		return serve(w, r)
	}
}

func (u *ui) loginForm(w http.ResponseWriter, r *http.Request) error {
	u.render(w, "login", "Sign in", "")
	return nil
}

func (u *ui) login(w http.ResponseWriter, r *http.Request) error {
	sess, err := u.auth.Login(r.PostFormValue("user"), r.PostFormValue("password"))
	if err != nil {
		w.Header().Set("Content-Type", "text/html; charset=utf-8") // render's own Set comes after the status line
		w.WriteHeader(http.StatusUnauthorized)
		u.render(w, "login", "Sign in", err.Error())
		return nil
	}
	setSessionCookie(w, sess.Token, 0)
	http.Redirect(w, r, "/", http.StatusSeeOther)
	return nil
}

func (u *ui) logout(w http.ResponseWriter, r *http.Request) error {
	u.auth.Logout(auth.RequestToken(r))
	setSessionCookie(w, "", -1)
	http.Redirect(w, r, "/login", http.StatusSeeOther)
	return nil
}
