package rest

// Session-consistency plumbing: every successful data response carries
// the serving store's commit position as an X-Chronos-Commit-Position
// token, and follower data reads honour X-Chronos-Read-After — wait
// (bounded) until the applied position covers the token, or say
// retryably (503) / definitively (412) that they cannot. Together these
// give clients read-your-writes and monotonic reads on the scaled
// follower read path; see internal/api for the token format and
// internal/relstore/repl for the generation protocol behind the 412s.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"chronos/internal/api"
	"chronos/internal/httputil"
)

// defaultReadAfterWait bounds token waits when Server.ReadAfterWait is
// unset: long enough for a healthy follower one round-trip behind, short
// enough that a stalled one degrades into the client's retry loop.
const defaultReadAfterWait = 5 * time.Second

// retryAfter is the Retry-After hint (seconds) sent with every 503. All
// our 503 conditions — replication lag, staleness budget, read-only
// writes — are the kind that resolve in well under a second when they
// resolve at all, so the minimum expressible hint is the honest one.
const retryAfter = "1"

// writeUnavailable emits a 503 with the Retry-After hint; every 503 the
// server produces goes through here so clients can rely on the header.
func writeUnavailable(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", retryAfter)
	httputil.WriteError(w, http.StatusServiceUnavailable, err)
}

// positionWriter injects the commit-position header at WriteHeader time,
// so the token is captured after the handler's own mutation committed —
// a leader's response token always covers the write it acknowledges.
type positionWriter struct {
	http.ResponseWriter
	s     *Server
	wrote bool
}

func (pw *positionWriter) WriteHeader(code int) {
	if !pw.wrote {
		pw.wrote = true
		if code >= 200 && code < 300 {
			// What this store's readers observe: the commit position on
			// a leader, the applied position on a follower — none from
			// an in-memory store or a follower not yet verified.
			if gen, pos, ok := pw.s.svc.Store().DB().ReadPosition(); ok {
				pw.Header().Set(api.HeaderCommitPosition, api.CommitToken{Generation: gen, Position: pos}.String())
			}
		}
	}
	pw.ResponseWriter.WriteHeader(code)
}

func (pw *positionWriter) Write(b []byte) (int, error) {
	if !pw.wrote {
		pw.WriteHeader(http.StatusOK)
	}
	return pw.ResponseWriter.Write(b)
}

// withCommitPosition wraps the whole API in the position header.
func (s *Server) withCommitPosition(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		next.ServeHTTP(&positionWriter{ResponseWriter: w, s: s}, r)
	})
}

// readable is the follower-side session gate on data reads (the view
// gate's second half); it reports whether the read may proceed, having
// written the response otherwise. Leaders serve directly: they are the
// authority every token points at. A follower first proves it is within
// the staleness budget, then honours any X-Chronos-Read-After token:
//
//   - same generation: wait (up to ReadAfterWait) for the applied
//     position to cover the token; deadline → 503 + Retry-After.
//   - token from a newer epoch than the follower has verified: the
//     leader restarted and this follower hasn't re-verified yet — a
//     retry can succeed, so 503 + Retry-After.
//   - token from an older epoch or another store: this follower can
//     never prove it holds that history — 412, go to the leader.
func (s *Server) readable(w http.ResponseWriter, r *http.Request) bool {
	// Checked per request: Repl is assigned after NewServer wires the
	// routes.
	if s.Repl == nil {
		return true
	}
	if !s.freshEnough(w) {
		return false
	}
	raw := r.Header.Get(api.HeaderReadAfter)
	if raw == "" {
		return true
	}
	tok, err := api.ParseCommitToken(raw)
	if err != nil {
		httputil.WriteError(w, http.StatusBadRequest, err)
		return false
	}
	return s.waitReadAfter(w, r, tok)
}

// freshEnough enforces the bounded-staleness budget; it reports whether
// the request may proceed, having written the 503 response otherwise.
func (s *Server) freshEnough(w http.ResponseWriter) bool {
	if s.MaxStaleness <= 0 {
		return true
	}
	rs := s.Repl.Status()
	if rs.StalenessMs < 0 {
		writeUnavailable(w, errors.New("rest: follower has not yet proven itself caught up; degraded until it does"))
		return false
	}
	if rs.StalenessMs > s.MaxStaleness.Milliseconds() {
		writeUnavailable(w, fmt.Errorf("rest: follower staleness %dms exceeds the %v budget; degraded until it catches up",
			rs.StalenessMs, s.MaxStaleness))
		return false
	}
	return true
}

// waitReadAfter blocks until the follower's applied position covers tok
// (or a verdict is reached); it reports whether the read may proceed,
// having written the error response otherwise.
func (s *Server) waitReadAfter(w http.ResponseWriter, r *http.Request, tok api.CommitToken) bool {
	db := s.svc.Store().DB()
	check := func() (proceed, decided bool) {
		gen, _, ok := db.ReadPosition()
		switch {
		case !ok:
			// Mid re-bootstrap: state is unverified right now, but a
			// moment from now it will be — retryable.
			writeUnavailable(w, errors.New("rest: follower state not yet verified against a leader generation"))
			return false, true
		case tok.StoreID != gen.StoreID || tok.Epoch < gen.Epoch:
			// A foreign store, or an epoch this follower's verified
			// history has superseded: no amount of waiting here can
			// prove the token's position was preserved. Fail closed,
			// definitively — only the leader is authoritative for it.
			httputil.WriteError(w, http.StatusPreconditionFailed,
				fmt.Errorf("rest: read-after token names generation %s but this follower is verified against %s; read from the leader",
					tok.Generation, gen))
			return false, true
		case tok.Epoch > gen.Epoch:
			// The leader restarted since this follower last verified;
			// the follower will notice and adopt shortly — retryable.
			writeUnavailable(w, fmt.Errorf("rest: read-after token names epoch %d but this follower is still verified against epoch %d",
				tok.Epoch, gen.Epoch))
			return false, true
		}
		return true, false
	}
	if proceed, decided := check(); decided {
		return proceed
	}
	wait := s.ReadAfterWait
	if wait <= 0 {
		wait = defaultReadAfterWait
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	if err := db.WaitFollowerApplied(ctx, tok.Position); err != nil {
		// Unless the client itself went away (a response would be moot),
		// report retryably: the deadline expired or the store is mid
		// close/reopen, and both can resolve on a retry.
		if r.Context().Err() == nil {
			writeUnavailable(w, fmt.Errorf("rest: follower did not reach position %d:%d within %v: %v",
				tok.Seq, tok.Off, wait, err))
		}
		return false
	}
	// The wait can also be satisfied by a re-bootstrap moving the applied
	// position past the token in a *different* history — re-check the
	// generation so such a token is never silently "satisfied".
	proceed, _ := check()
	return proceed
}
