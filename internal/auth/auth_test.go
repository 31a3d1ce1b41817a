package auth

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/relstore"
)

func newAuthFixture(t *testing.T) (*Authenticator, *core.Service, *metrics.ManualClock) {
	t.Helper()
	clock := metrics.NewManualClock(time.Unix(1e9, 0))
	db := relstore.OpenMemory()
	svc, err := core.NewService(db, clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	return New(svc, clock.Now), svc, clock
}

func TestLoginFlow(t *testing.T) {
	a, svc, _ := newAuthFixture(t)
	u, _ := svc.CreateUser("marco", core.RoleAdmin)
	if err := a.SetPassword(u.ID, "hunter22"); err != nil {
		t.Fatal(err)
	}
	s, err := a.Login("marco", "hunter22")
	if err != nil {
		t.Fatal(err)
	}
	if s.UserID != u.ID || s.Role != core.RoleAdmin || s.Token == "" {
		t.Fatalf("session = %+v", s)
	}
	got, err := a.Validate(s.Token)
	if err != nil || got.UserID != u.ID {
		t.Fatalf("validate = %+v, %v", got, err)
	}
	a.Logout(s.Token)
	if _, err := a.Validate(s.Token); !errors.Is(err, ErrNoSession) {
		t.Fatalf("after logout: %v", err)
	}
}

// TestEnabledIsAFactOfTheData: session auth is on exactly when the store
// holds credentials. A fresh store holds not even the table, a user
// without a password changes nothing, the first SetPassword turns it on —
// for every Authenticator over that store, with nothing passed to any.
func TestEnabledIsAFactOfTheData(t *testing.T) {
	a, svc, _ := newAuthFixture(t)
	db := svc.Store().DB()
	if a.Enabled() || slices.Contains(db.Tables(), credentialsTable) {
		t.Fatalf("fresh store: enabled=%v, tables %v", a.Enabled(), db.Tables())
	}
	u, _ := svc.CreateUser("marco", core.RoleAdmin)
	if _, err := a.Login("marco", ""); !errors.Is(err, ErrBadCredentials) || a.Enabled() {
		t.Fatalf("a user without a password: login %v, enabled=%v", err, a.Enabled())
	}
	if err := a.SetPassword(u.ID, "hunter22"); err != nil {
		t.Fatal(err)
	}
	if other := New(svc, nil); !a.Enabled() || !other.Enabled() {
		t.Fatal("credentials in the store did not turn session auth on")
	}
}

// TestRequestToken: the bearer header wins, the login cookie is next.
func TestRequestToken(t *testing.T) {
	r := httptest.NewRequest("GET", "/", nil)
	if tok := RequestToken(r); tok != "" {
		t.Fatalf("bare request presents %q", tok)
	}
	r.AddCookie(&http.Cookie{Name: SessionCookie, Value: "from-cookie"})
	if tok := RequestToken(r); tok != "from-cookie" {
		t.Fatalf("cookie: %q", tok)
	}
	r.Header.Set("Authorization", "Bearer from-header")
	if tok := RequestToken(r); tok != "from-header" {
		t.Fatalf("header beside cookie: %q", tok)
	}
}

func TestLoginFailures(t *testing.T) {
	a, svc, _ := newAuthFixture(t)
	u, _ := svc.CreateUser("marco", core.RoleMember)
	a.SetPassword(u.ID, "correct-pw")

	if _, err := a.Login("marco", "wrong"); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("wrong password: %v", err)
	}
	if _, err := a.Login("ghost", "whatever"); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("unknown user: %v", err)
	}
	// A user without a password record cannot log in.
	u2, _ := svc.CreateUser("nopw", core.RoleMember)
	_ = u2
	if _, err := a.Login("nopw", ""); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("passwordless user: %v", err)
	}
}

// TestLoginReadsOnlyTheNamedAccount: Login finds its user through the
// name index, so an unrelated account whose row does not decode locks
// nobody else out.
func TestLoginReadsOnlyTheNamedAccount(t *testing.T) {
	a, svc, _ := newAuthFixture(t)
	u, _ := svc.CreateUser("marco", core.RoleMember)
	if err := a.SetPassword(u.ID, "hunter22"); err != nil {
		t.Fatal(err)
	}
	err := a.db.Update(func(tx *relstore.Tx) error {
		return tx.Put("users", relstore.Row{"id": "user-000000000", "name": "broken", "data": []byte("{not json")})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Login("marco", "hunter22"); err != nil {
		t.Fatalf("login beside an undecodable account: %v", err)
	}
	if _, err := a.Login("broken", "whatever"); err == nil {
		t.Fatal("login as the undecodable account succeeded")
	}
}

func TestSetPasswordValidation(t *testing.T) {
	a, svc, _ := newAuthFixture(t)
	u, _ := svc.CreateUser("u", core.RoleMember)
	if err := a.SetPassword(u.ID, "abc"); err == nil {
		t.Fatal("short password accepted")
	}
	if err := a.SetPassword("user-000000404", "longenough"); err == nil {
		t.Fatal("ghost user accepted")
	}
	// Password change invalidates the old one.
	a.SetPassword(u.ID, "first-pw")
	a.SetPassword(u.ID, "second-pw")
	if _, err := a.Login("u", "first-pw"); err == nil {
		t.Fatal("old password still valid")
	}
	if _, err := a.Login("u", "second-pw"); err != nil {
		t.Fatal(err)
	}
}

func TestSessionExpiry(t *testing.T) {
	a, svc, clock := newAuthFixture(t)
	u, _ := svc.CreateUser("u", core.RoleMember)
	a.SetPassword(u.ID, "longenough")
	a.SessionTTL = time.Hour

	s, err := a.Login("u", "longenough")
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(30 * time.Minute)
	if _, err := a.Validate(s.Token); err != nil {
		t.Fatalf("mid-ttl validate: %v", err)
	}
	// Validation renews: another 45 minutes stays valid.
	clock.Advance(45 * time.Minute)
	if _, err := a.Validate(s.Token); err != nil {
		t.Fatalf("renewed validate: %v", err)
	}
	clock.Advance(2 * time.Hour)
	if _, err := a.Validate(s.Token); !errors.Is(err, ErrNoSession) {
		t.Fatalf("expired validate: %v", err)
	}
}

// TestPurgeExpired: sessions nobody presents again are swept by the next
// login rather than living as long as the process.
func TestPurgeExpired(t *testing.T) {
	a, svc, clock := newAuthFixture(t)
	u, _ := svc.CreateUser("u", core.RoleMember)
	a.SetPassword(u.ID, "longenough")
	a.SessionTTL = time.Minute
	for i := 0; i < 5; i++ {
		if _, err := a.Login("u", "longenough"); err != nil {
			t.Fatal(err)
		}
	}
	if len(a.sessions) != 5 {
		t.Fatalf("sessions = %d, want 5", len(a.sessions))
	}
	clock.Advance(2 * time.Minute)
	s, err := a.Login("u", "longenough")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.sessions) != 1 {
		t.Fatalf("sessions after a login past the TTL = %d, want only the new one", len(a.sessions))
	}
	if _, err := a.Validate(s.Token); err != nil {
		t.Fatalf("the new session was swept with the old: %v", err)
	}
}

func TestDisabledUserCannotLogin(t *testing.T) {
	a, svc, _ := newAuthFixture(t)
	u, _ := svc.CreateUser("u", core.RoleMember)
	a.SetPassword(u.ID, "longenough")
	// Disable via the store (no service endpoint needed for the test).
	users, _ := svc.ListUsers()
	users[0].Disabled = true
	err := svc.Store().DB().Update(func(tx *relstore.Tx) error {
		return svc.Store().PutUser(tx, users[0])
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Login("u", "longenough"); !errors.Is(err, ErrBadCredentials) {
		t.Fatalf("disabled login: %v", err)
	}
	_ = u
}

func TestAuthorize(t *testing.T) {
	admin := &Session{Role: core.RoleAdmin}
	member := &Session{Role: core.RoleMember}
	viewer := &Session{Role: core.RoleViewer}

	if err := Authorize(admin, core.RoleAdmin); err != nil {
		t.Fatal(err)
	}
	if err := Authorize(member, core.RoleMember); err != nil {
		t.Fatal(err)
	}
	if err := Authorize(member, core.RoleViewer); err != nil {
		t.Fatal(err)
	}
	if err := Authorize(viewer, core.RoleViewer); err != nil {
		t.Fatal(err)
	}
	if err := Authorize(viewer, core.RoleMember); err == nil {
		t.Fatal("viewer got member access")
	}
	if err := Authorize(member, core.RoleAdmin); err == nil {
		t.Fatal("member got admin access")
	}
	if err := Authorize(nil, core.RoleViewer); !errors.Is(err, ErrNoSession) {
		t.Fatalf("nil session: %v", err)
	}
}

func TestPasswordHashDeterministicAndSalted(t *testing.T) {
	salt := []byte("0123456789abcdef")
	h1 := hashPassword("pw", salt)
	h2 := hashPassword("pw", salt)
	if string(h1) != string(h2) {
		t.Fatal("hash not deterministic")
	}
	h3 := hashPassword("pw", []byte("different-salt!!"))
	if string(h1) == string(h3) {
		t.Fatal("salt has no effect")
	}
	h4 := hashPassword("pw2", salt)
	if string(h1) == string(h4) {
		t.Fatal("password has no effect")
	}
}
