// Package auth implements Chronos Control's session and role-based user
// management (paper §2.2: "an advanced session and role-based user
// management to support the deployment in a multi-user environment").
//
// Credentials are stored as salted, iterated SHA-256 digests (stdlib
// only; the iteration count makes brute force expensive). Sessions are
// random 128-bit bearer tokens with server-side expiry.
package auth

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"chronos/internal/core"
	"chronos/internal/relstore"
)

// Errors returned by the authenticator.
var (
	// ErrBadCredentials covers unknown users and wrong passwords alike so
	// responses do not leak which part failed.
	ErrBadCredentials = errors.New("auth: invalid credentials")
	// ErrNoSession means the presented token is unknown or expired.
	ErrNoSession = errors.New("auth: no such session")
)

// hashIterations is the number of chained SHA-256 applications.
const hashIterations = 4096

// credentialsTable persists password records. SetPassword creates it, so
// a store holds it only once somebody has been given a password.
const credentialsTable = "credentials"

var credentialsSchema = relstore.Schema{
	Name: credentialsTable,
	Key:  "id", // user id
	Columns: []relstore.Column{
		{Name: "id", Type: relstore.TString},
		{Name: "salt", Type: relstore.TBytes},
		{Name: "hash", Type: relstore.TBytes},
	},
}

// SessionCookie is the cookie the web UI's login form keeps the session
// token in. HttpOnly keeps it from page scripts, and SameSite=Strict keeps
// another site's form from spending it on a route that writes.
const SessionCookie = "chronos_session"

// RequestToken returns the session token a request presents: the bearer
// header an API client sends, else the login cookie a browser carries,
// else "".
func RequestToken(r *http.Request) string {
	if tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer "); ok {
		return tok
	}
	if c, err := r.Cookie(SessionCookie); err == nil {
		return c.Value
	}
	return ""
}

// Authenticator manages passwords and sessions on top of the core user
// registry. Sessions are kept in memory (they are cheap to re-establish);
// credentials persist in the store.
type Authenticator struct {
	db  *relstore.DB
	svc *core.Service

	// SessionTTL bounds session lifetime; renewed on use.
	SessionTTL time.Duration

	mu       sync.Mutex
	sessions map[string]*Session
	clock    func() time.Time
}

// Session is an authenticated browser or API session.
type Session struct {
	Token   string
	UserID  string
	Role    core.Role
	Expires time.Time
}

// New creates an Authenticator over the service's database. clock may be
// nil for wall time. It writes nothing: the
// credentials table is created by the first SetPassword, and on a
// replication follower table and rows arrive from the leader, so Login and
// Validate work there unchanged while SetPassword fails with the store's
// read-only error.
func New(svc *core.Service, clock func() time.Time) *Authenticator {
	if clock == nil {
		clock = time.Now
	}
	return &Authenticator{
		db:         svc.Store().DB(),
		svc:        svc,
		SessionTTL: 12 * time.Hour,
		sessions:   make(map[string]*Session),
		clock:      clock,
	}
}

// Enabled reports whether session auth is on, which is a fact of the data
// and of nothing else: it is on exactly when the store holds credentials —
// a leader's own, or the ones a follower replicated from its leader. A
// store that cannot be read counts as closed, not as open.
func (a *Authenticator) Enabled() bool {
	var n int
	err := a.db.View(func(tx *relstore.Tx) error {
		var err error
		n, err = tx.Count(credentialsTable, relstore.NewQuery().Limit(1))
		return err
	})
	if err != nil {
		return !errors.Is(err, relstore.ErrUnknownTable)
	}
	return n > 0
}

// hashPassword derives the stored digest for password and salt.
func hashPassword(password string, salt []byte) []byte {
	sum := sha256.Sum256(append(salt, []byte(password)...))
	for i := 1; i < hashIterations; i++ {
		sum = sha256.Sum256(sum[:])
	}
	return sum[:]
}

// randomBytes returns n cryptographically random bytes.
func randomBytes(n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		return nil, fmt.Errorf("auth: entropy: %w", err)
	}
	return b, nil
}

// SetPassword stores (or replaces) a user's password.
func (a *Authenticator) SetPassword(userID, password string) error {
	if len(password) < 4 {
		return fmt.Errorf("auth: password too short")
	}
	if _, err := a.svc.GetUser(userID); err != nil {
		return err
	}
	salt, err := randomBytes(16)
	if err != nil {
		return err
	}
	hash := hashPassword(password, salt)
	if err := a.db.CreateTable(credentialsSchema); err != nil {
		return err
	}
	return a.db.Update(func(tx *relstore.Tx) error {
		return tx.Put(credentialsTable, relstore.Row{"id": userID, "salt": salt, "hash": hash})
	})
}

// Login verifies credentials by user name and opens a session. The user
// (found through the name index, so no other account is decoded) and its
// credential row are read in one View: one cut, in which the two cannot
// disagree.
func (a *Authenticator) Login(userName, password string) (*Session, error) {
	var user *core.User
	var salt, stored []byte
	err := a.db.View(func(tx *relstore.Tx) error {
		var err error
		if user, err = a.svc.Store().FindUserByName(tx, userName); err != nil {
			return err
		}
		row, err := tx.Get(credentialsTable, user.ID)
		if err != nil {
			return err
		}
		salt = row["salt"].([]byte)
		stored = row["hash"].([]byte)
		return nil
	})
	if err != nil || user.Disabled {
		// Burn the same hashing cost as a real check to level timing.
		hashPassword(password, []byte("timing-equalizer"))
		if err != nil && !errors.Is(err, relstore.ErrNotFound) && !errors.Is(err, relstore.ErrUnknownTable) {
			return nil, err
		}
		return nil, ErrBadCredentials
	}
	if subtle.ConstantTimeCompare(hashPassword(password, salt), stored) != 1 {
		return nil, ErrBadCredentials
	}
	tok, err := randomBytes(16)
	if err != nil {
		return nil, err
	}
	now := a.clock()
	s := &Session{
		Token:   hex.EncodeToString(tok),
		UserID:  user.ID,
		Role:    user.Role,
		Expires: now.Add(a.SessionTTL),
	}
	a.mu.Lock()
	// Sweep here what Validate will never see again: a session that is not
	// presented after it expires would otherwise live as long as the
	// process. Beside the hashing a login just paid for, the pass is noise.
	for tok, old := range a.sessions {
		if now.After(old.Expires) {
			delete(a.sessions, tok)
		}
	}
	a.sessions[s.Token] = s
	a.mu.Unlock()
	return s, nil
}

// Validate resolves a bearer token to its session, renewing the expiry.
func (a *Authenticator) Validate(token string) (*Session, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.sessions[token]
	if !ok {
		return nil, ErrNoSession
	}
	if a.clock().After(s.Expires) {
		delete(a.sessions, token)
		return nil, ErrNoSession
	}
	s.Expires = a.clock().Add(a.SessionTTL)
	return s, nil
}

// Logout terminates the session with the given token.
func (a *Authenticator) Logout(token string) {
	a.mu.Lock()
	delete(a.sessions, token)
	a.mu.Unlock()
}

// Authorize checks role-based access: admins may do anything; the
// required role otherwise must match exactly or be weaker (member implies
// viewer access).
func Authorize(s *Session, required core.Role) error {
	if s == nil {
		return ErrNoSession
	}
	switch {
	case s.Role == core.RoleAdmin:
		return nil
	case required == core.RoleViewer:
		return nil // every authenticated role may read
	case required == core.RoleMember && s.Role == core.RoleMember:
		return nil
	default:
		return fmt.Errorf("auth: role %s lacks %s access", s.Role, required)
	}
}
