package client

// The session-consistency side of the SDK: commit-position tokens,
// retry/backoff, and leader fallback.
//
// Every successful response carries the serving store's commit position
// in X-Chronos-Commit-Position; the client ratchets the newest one it
// has seen and threads it into reads as X-Chronos-Read-After. Against a
// follower that yields read-your-writes and monotonic reads; when the
// follower answers 503 (lagging, degraded, or mid-verification) the
// client retries with jittered exponential backoff, and when it answers
// 412 (the token's generation can never be proven there) or retries run
// out, the read falls back to the leader configured via WithLeader.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"time"

	"chronos/internal/api"
	"chronos/internal/httputil"
)

// Typed failures the retry and fallback logic keys on; match with
// errors.Is. Wrapped errors carry the server's own message.
var (
	// ErrUnavailable: the server answered 503 (follower lagging or
	// degraded, or a write hit a read-only follower) or was unreachable.
	// Retryable — and for writes, a hint to go to the leader.
	ErrUnavailable = errors.New("client: server temporarily unavailable")
	// ErrStale: the server answered 412 — this follower can never prove
	// it holds the session token's history (pre-restart epoch or foreign
	// store). Retrying there is pointless; only the leader can serve it.
	ErrStale = errors.New("client: follower cannot serve this session token")
)

// WithLeader names the leader endpoint when baseURL points at a
// follower: mutations route there, and reads fall back to it when the
// follower refuses or keeps failing.
func WithLeader(url string) Option { return func(c *Client) { c.leaderURL = url } }

// WithRequestTimeout bounds each individual HTTP attempt (not the whole
// retry loop) with a context deadline.
func WithRequestTimeout(d time.Duration) Option { return func(c *Client) { c.reqTimeout = d } }

// WithRetries sets how many attempts an idempotent read makes against
// the read endpoint before giving up (or falling back to the leader).
func WithRetries(n int) Option { return func(c *Client) { c.retries = max(n, 1) } }

// WithBackoff sets the first retry delay and its cap; delays double
// between attempts with uniform jitter in [d/2, d].
func WithBackoff(base, cap time.Duration) Option {
	return func(c *Client) { c.retryBase, c.retryMax = base, max(cap, base) }
}

// LastCommit returns the newest commit position this client has observed
// (its session token), if any. Writes ratchet it forward; reads both use
// and refresh it.
func (c *Client) LastCommit() (api.CommitToken, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.session, c.hasSession
}

// writeBase is where mutations go: the leader when one is configured.
func (c *Client) writeBase() string {
	if c.leaderURL != "" {
		return c.leaderURL
	}
	return c.baseURL
}

// noteToken ratchets the session token from a response header. Within a
// generation only a covering (newer-or-equal) position replaces the
// current one — that monotonicity is what makes threading the token into
// reads yield monotonic reads. A different generation replaces the token
// outright when it is genuinely newer history (a bumped epoch after a
// leader restart, or a different store when the client was repointed).
func (c *Client) noteToken(h http.Header) {
	v := h.Get(api.HeaderCommitPosition)
	if v == "" {
		return
	}
	tok, err := api.ParseCommitToken(v)
	if err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case !c.hasSession:
		c.session, c.hasSession = tok, true
	case tok.Generation == c.session.Generation:
		if tok.Covers(c.session.Position) {
			c.session = tok
		}
	case tok.StoreID != c.session.StoreID || tok.Epoch > c.session.Epoch:
		c.session = tok
	}
}

// readLoop is the shared read policy: up to c.retries attempts against
// the read endpoint with jittered exponential backoff on ErrUnavailable,
// then a final attempt at the leader on ErrStale or exhaustion.
func (c *Client) readLoop(attempt func(base string) error) error {
	backoff := c.retryBase
	var err error
	for i := 0; i < c.retries; i++ {
		if i > 0 {
			time.Sleep(backoff/2 + rand.N(backoff/2+1))
			backoff = min(backoff*2, c.retryMax)
		}
		err = attempt(c.baseURL)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrStale) {
			// Definitive refusal: no retry against this server can
			// succeed, but the leader can serve the read.
			break
		}
		if !errors.Is(err, ErrUnavailable) {
			return err // a real answer (404, 400, ...): not retryable
		}
	}
	if c.leaderURL != "" && c.leaderURL != c.baseURL {
		return attempt(c.leaderURL)
	}
	return err
}

// doOnce makes one attempt at an API call against base and decodes the
// enveloped response into out. It also reports the HTTP status the server
// answered with (0 when none arrived), for the caller that tells refusals
// apart.
func (c *Client) doOnce(base, method, path string, body, out any) (int, error) {
	status, data, err := c.roundTrip(method, base+"/api/"+c.version+path, body)
	if err == nil {
		err = httputil.ReadEnvelope(data, out)
		if errors.Is(err, httputil.ErrInvalidEnvelope) {
			// Not a server-stated error but a damaged transfer (e.g. a
			// truncated body): retryable like any transport failure.
			err = fmt.Errorf("%w: %v", ErrUnavailable, err)
		}
	}
	if err != nil {
		return status, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	return status, nil
}

// roundTrip is the one place the SDK issues an HTTP request: a single
// attempt at url under the per-attempt deadline, with body (if any) sent
// as JSON. It returns the status and the raw response body, ratchets the
// session token from the response, and maps what the retry loop keys on
// onto the typed errors — transport failures and 503 to ErrUnavailable,
// 412 to ErrStale. A body over httputil.MaxBodyBytes is an error of its
// own, which no retry cures. Other statuses are left to the caller: an
// envelope's embedded error message is the server's authoritative
// description.
func (c *Client) roundTrip(method, url string, body any) (int, []byte, error) {
	var rdr io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, fmt.Errorf("marshal request: %w", err)
		}
		rdr = bytes.NewReader(data)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.reqTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, rdr)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.setHeaders(req)
	resp, err := c.httpClient.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer resp.Body.Close()
	// Reading one byte past the limit tells a body over it from one at
	// it. An oversized answer is refused, not retried: every attempt
	// would download the same bytes again.
	data, err := io.ReadAll(io.LimitReader(resp.Body, httputil.MaxBodyBytes+1))
	if err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	c.noteToken(resp.Header)
	if len(data) > httputil.MaxBodyBytes {
		return 0, nil, fmt.Errorf("response body larger than the %d-byte limit", httputil.MaxBodyBytes)
	}
	switch resp.StatusCode {
	case http.StatusServiceUnavailable:
		return 0, nil, fmt.Errorf("%w: %s", ErrUnavailable, envelopeMsg(data))
	case http.StatusPreconditionFailed:
		return 0, nil, fmt.Errorf("%w: %s", ErrStale, envelopeMsg(data))
	}
	return resp.StatusCode, data, nil
}

// setHeaders applies the credentials the client holds, a fresh trace id
// and, on reads, the session token. Each HTTP attempt gets its own trace
// id — a retried read is two requests and shows up as two traces, which
// is what an operator correlating server logs wants to see.
func (c *Client) setHeaders(req *http.Request) {
	c.mu.Lock()
	token, session, hasSession := c.token, c.session, c.hasSession
	c.mu.Unlock()
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	if c.agentToken != "" {
		req.Header.Set("X-Chronos-Agent-Token", c.agentToken)
	}
	if c.replToken != "" {
		req.Header.Set(api.HeaderReplToken, c.replToken)
	}
	req.Header.Set(api.HeaderTrace, httputil.MintTraceID())
	if req.Method == http.MethodGet && hasSession {
		req.Header.Set(api.HeaderReadAfter, session.String())
	}
}

// envelopeMsg extracts the error message from an error envelope, falling
// back to the raw body.
func envelopeMsg(data []byte) string {
	if err := httputil.ReadEnvelope(data, nil); err != nil {
		return err.Error()
	}
	return string(bytes.TrimSpace(data))
}

// MetricsText fetches the server's Prometheus text exposition
// (GET /metrics — a root-path endpoint, outside the versioned API
// prefix). An admin session token or WithReplToken satisfies the
// endpoint's gate; chronosctl's `status -metrics` builds on this.
func (c *Client) MetricsText() (string, error) {
	status, data, err := c.roundTrip(http.MethodGet, c.baseURL+"/metrics", nil)
	if err != nil {
		return "", fmt.Errorf("client: GET /metrics: %w", err)
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("client: GET /metrics: %d %s: %s", status, http.StatusText(status), envelopeMsg(data))
	}
	return string(data), nil
}
