package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"chronos/internal/api"
	"chronos/internal/core"
	"chronos/internal/httputil"
	"chronos/internal/metrics"
)

// Claim delegation rides the replication channel: a follower holding a
// claim lease answers agents' ClaimJob calls from its own replica and
// ships the resulting claim intents to the leader's repl endpoints,
// where they commit authoritatively in one batched transaction. The
// agent never sees a job the leader has not committed to it — a lost
// race comes back as a per-intent verdict and the follower silently
// tries the next candidate.

// ErrClaimUnavailable means a follower cannot serve a delegated claim
// right now (no lease obtainable, leader unreachable, replica not yet
// caught up to the deployment). The REST layer maps it to 503 so
// clients retry or fall back to the leader, exactly like a stale read.
var ErrClaimUnavailable = errors.New("repl: claim delegation unavailable")

// post sends a JSON body to a leader repl endpoint and returns the
// status code and response body.
func (c *Client) post(ctx context.Context, url string, in any) (int, []byte, error) {
	b, err := json.Marshal(in)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.replToken != "" {
		req.Header.Set(HeaderReplToken, c.replToken)
	}
	// Forward the request's trace id, so a delegated claim's leader leg
	// logs under the same id as the follower request that caused it.
	if tr := httputil.TraceID(ctx); tr != "" {
		req.Header.Set(httputil.HeaderTrace, tr)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}

// GrantLease asks the leader to grant (or renew) this follower's claim
// lease.
func (c *Client) GrantLease(ctx context.Context, followerID string, ttl time.Duration) (core.Lease, error) {
	var l core.Lease
	status, body, err := c.post(ctx, c.url("lease"), api.LeaseRequest{FollowerID: followerID, TTLMs: ttl.Milliseconds()})
	if err != nil {
		return l, err
	}
	if status != http.StatusOK {
		return l, fmt.Errorf("repl: lease grant: HTTP %d: %s", status, body)
	}
	return l, httputil.ReadEnvelope(body, &l)
}

// ClaimIntents ships a batch of claim intents for authoritative commit.
// A 412 means the lease is no longer valid (expired, superseded, or the
// leader restarted and lost its soft-state lease table) and surfaces as
// core.ErrLeaseInvalid; everything in the batch was refused.
func (c *Client) ClaimIntents(ctx context.Context, leaseID, followerID string, intents []core.ClaimIntent) ([]core.ClaimVerdict, error) {
	req := api.ClaimIntentsRequest{LeaseID: leaseID, FollowerID: followerID, Intents: intents}
	status, body, err := c.post(ctx, c.url("claims"), req)
	if err != nil {
		return nil, err
	}
	switch status {
	case http.StatusOK:
	case http.StatusPreconditionFailed:
		return nil, fmt.Errorf("repl: claim intents: %w", core.ErrLeaseInvalid)
	default:
		return nil, fmt.Errorf("repl: claim intents: HTTP %d: %s", status, body)
	}
	var resp api.ClaimIntentsResponse
	if err := httputil.ReadEnvelope(body, &resp); err != nil {
		return nil, err
	}
	if len(resp.Verdicts) != len(intents) {
		return nil, fmt.Errorf("repl: claim intents: %d verdicts for %d intents", len(resp.Verdicts), len(intents))
	}
	return resp.Verdicts, nil
}

// Claimer serves delegated ClaimJob calls on a follower. Two
// amortisations make fan-out through followers cheaper than per-claim
// leader transactions: candidates are prefetched from the replica in
// id-only scans (one scan feeds many claims), and concurrent intents
// group into one leader round trip (one transaction, one WAL record,
// one shared fsync per batch — the same door pattern as relstore's
// group commit).
type Claimer struct {
	// FollowerID names this follower in lease grants; it must be unique
	// among the leader's followers.
	FollowerID string
	// TTL is the lease lifetime requested from the leader; renewal
	// happens in the background of claims once a third of it elapsed.
	// Default 10s.
	TTL time.Duration
	// MaxBatch caps intents per leader round trip. Default 64.
	MaxBatch int
	// CandidateBatch is how many claimable job ids one replica scan
	// prefetches. Default 64.
	CandidateBatch int
	// CommitTimeout bounds one intent round trip. Default 10s.
	CommitTimeout time.Duration

	svc *core.Service
	cl  *Client

	mu         sync.Mutex
	lease      core.Lease
	leaseUntil time.Time // local clock; derived from relative ExpiresInMs
	renewAt    time.Time
	cands      map[string][]string  // prefetched candidate ids by deployment
	skip       map[string]time.Time // ids queued/committed recently: not candidates
	queue      []*pendingIntent
	flushing   bool
	served     int64
	conflicts  int64
	faults     int64 // lease invalidations observed

	// met carries pre-resolved instrumentation handles (nil until
	// EnableMetrics: instrumentation off).
	met *claimerMetrics

	grantMu sync.Mutex // single-flights lease grants
}

// claimerMetrics holds the delegate's instrumentation handles.
type claimerMetrics struct {
	intentBatch *metrics.Summary
}

// EnableMetrics instruments the delegate into reg: the follower-side
// intent batch size, plus its Status counters as pull-time series. Call
// once at startup; a nil registry leaves instrumentation off.
func (c *Claimer) EnableMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	c.met = &claimerMetrics{
		intentBatch: reg.Summary("chronos_claim_delegate_batch_records",
			"Claim intents per follower flush batch (one leader round trip each).", 0),
	}
	c.mu.Unlock()
	reg.CounterFunc("chronos_claim_delegated_served_total",
		"Delegated claims granted through this follower.",
		func() float64 { return float64(c.Status().Served) })
	reg.CounterFunc("chronos_claim_delegated_conflicts_total",
		"Delegated claim races lost (conflict or repartitioned verdicts).",
		func() float64 { return float64(c.Status().Conflicts) })
	reg.CounterFunc("chronos_claim_delegated_lease_faults_total",
		"Lease invalidations observed by this follower.",
		func() float64 { return float64(c.Status().LeaseFaults) })
}

// skipTTL bounds how long a job id stays locally non-claimable after
// this follower queued or shipped it. It only suppresses wasted intents
// while the replica still shows the job as scheduled; correctness never
// depends on it (a re-shipped id just earns a conflict verdict). Claim
// drops an id from the set early when its intent came back undecided.
const skipTTL = 10 * time.Second

type pendingIntent struct {
	in core.ClaimIntent
	// trace is the claim request's trace id; the flush runs on a
	// detached context, so the id must ride the intent to reach the
	// leader round trip.
	trace string
	v     core.ClaimVerdict
	err   error
	done  chan struct{}
}

// NewClaimer builds a claim delegate over a follower's service (its
// replica view) and a ship client to the leader.
func NewClaimer(followerID string, svc *core.Service, leader *Client) *Claimer {
	return &Claimer{
		FollowerID:     followerID,
		TTL:            10 * time.Second,
		MaxBatch:       64,
		CandidateBatch: 64,
		CommitTimeout:  10 * time.Second,
		svc:            svc,
		cl:             leader,
		cands:          map[string][]string{},
		skip:           map[string]time.Time{},
	}
}

// Status reports the delegate's lease and counters for /status.
func (c *Claimer) Status() core.ClaimerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := core.ClaimerStatus{
		FollowerID:  c.FollowerID,
		Served:      c.served,
		Conflicts:   c.conflicts,
		LeaseFaults: c.faults,
	}
	if c.lease.ID != "" && time.Now().Before(c.leaseUntil) {
		l := c.lease
		l.ExpiresInMs = max(time.Until(c.leaseUntil).Milliseconds(), 0)
		st.Lease = &l
	}
	return st
}

// Claim serves one delegated ClaimJob: pick a candidate from the
// replica, ship the intent, and hand the job over only on a granted
// verdict. ok is false when no work in this follower's partitions is
// visible. Races (conflict or repartitioned verdicts) retry with the
// next candidate a few times before reporting ErrClaimUnavailable —
// never a wrong answer, just "ask again or ask the leader".
func (c *Claimer) Claim(ctx context.Context, deploymentID string) (*core.Job, bool, error) {
	var lastVerdict string
	for round := 0; round < 4; round++ {
		lease, err := c.ensureLease(ctx)
		if err != nil {
			return nil, false, fmt.Errorf("%w: lease: %v", ErrClaimUnavailable, err)
		}
		id, err := c.nextCandidate(deploymentID, lease)
		if err != nil {
			if errors.Is(err, core.ErrInactiveDeployment) {
				return nil, false, err
			}
			// Anything else — deployment not yet replicated, replica
			// mid-bootstrap — is answerable by the leader, not here.
			return nil, false, fmt.Errorf("%w: candidates: %v", ErrClaimUnavailable, err)
		}
		if id == "" {
			return nil, false, nil
		}
		v, err := c.commitIntent(ctx, core.ClaimIntent{JobID: id, DeploymentID: deploymentID})
		if err != nil || (v.Code != core.ClaimGranted && v.Code != core.ClaimConflict) {
			// Undecided: the leader neither granted the job nor found it
			// taken, so it is still scheduled and may still be ours after
			// the re-grant. Offer it again on the next refill; left in
			// skip it would stay invisible for skipTTL.
			c.mu.Lock()
			delete(c.skip, id)
			c.mu.Unlock()
		}
		if err != nil {
			if errors.Is(err, core.ErrLeaseInvalid) {
				// The grant is gone (expiry or leader restart): re-grant
				// and retry instead of bouncing the agent.
				continue
			}
			return nil, false, fmt.Errorf("%w: intent: %v", ErrClaimUnavailable, err)
		}
		switch v.Code {
		case core.ClaimGranted:
			c.mu.Lock()
			c.served++
			c.mu.Unlock()
			return v.Job, true, nil
		case core.ClaimRepartitioned:
			// Our partition map is stale; force a renewal next round.
			c.invalidateLease(lease.ID)
			fallthrough
		default:
			c.mu.Lock()
			c.conflicts++
			c.mu.Unlock()
			lastVerdict = v.Code
		}
	}
	return nil, false, fmt.Errorf("%w: lost %s races on every candidate", ErrClaimUnavailable, lastVerdict)
}

// ensureLease returns a live lease, granting or renewing as needed.
// Renewals start at a third of the TTL but reuse the current lease if
// the leader is briefly unreachable — intents decide validity anyway.
func (c *Claimer) ensureLease(ctx context.Context) (core.Lease, error) {
	c.mu.Lock()
	now := time.Now()
	if c.lease.ID != "" && now.Before(c.renewAt) {
		l := c.lease
		c.mu.Unlock()
		return l, nil
	}
	stillValid := c.lease.ID != "" && now.Before(c.leaseUntil)
	c.mu.Unlock()

	c.grantMu.Lock()
	defer c.grantMu.Unlock()
	c.mu.Lock()
	if c.lease.ID != "" && time.Now().Before(c.renewAt) { // another claim renewed while we queued
		l := c.lease
		c.mu.Unlock()
		return l, nil
	}
	c.mu.Unlock()

	ttl := c.TTL
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	gctx, cancel := context.WithTimeout(ctx, ttl)
	l, err := c.cl.GrantLease(gctx, c.FollowerID, ttl)
	cancel()
	if err != nil {
		if stillValid {
			c.mu.Lock()
			cur := c.lease
			c.mu.Unlock()
			return cur, nil
		}
		return core.Lease{}, err
	}
	now = time.Now()
	c.mu.Lock()
	c.lease = l
	c.leaseUntil = now.Add(time.Duration(l.ExpiresInMs) * time.Millisecond)
	c.renewAt = now.Add(time.Duration(l.ExpiresInMs) * time.Millisecond / 3)
	c.mu.Unlock()
	return l, nil
}

// invalidateLease drops the cached lease if it still is leaseID.
func (c *Claimer) invalidateLease(leaseID string) {
	c.mu.Lock()
	if c.lease.ID == leaseID {
		c.lease = core.Lease{}
		c.faults++
	}
	c.mu.Unlock()
}

// nextCandidate pops a prefetched candidate id for the deployment,
// refilling from the replica when the queue runs dry. Returns "" when
// no scheduled job in the lease's partitions is visible.
func (c *Claimer) nextCandidate(deploymentID string, lease core.Lease) (string, error) {
	c.mu.Lock()
	if q := c.cands[deploymentID]; len(q) > 0 {
		id := q[0]
		c.cands[deploymentID] = q[1:]
		c.mu.Unlock()
		return id, nil
	}
	now := time.Now()
	c.sweepSkipLocked(now)
	skip := make(map[string]bool, len(c.skip))
	for id := range c.skip {
		skip[id] = true
	}
	c.mu.Unlock()

	parts := make(map[int]bool, len(lease.Partitions))
	for _, p := range lease.Partitions {
		parts[p] = true
	}
	n := c.CandidateBatch
	if n <= 0 {
		n = 64
	}
	ids, err := c.svc.ClaimCandidates(deploymentID, func(id string) bool {
		return parts[core.PartitionOf(id, lease.NumPartitions)] && !skip[id]
	}, n)
	if err != nil {
		return "", err
	}
	if len(ids) == 0 {
		return "", nil
	}
	c.mu.Lock()
	// Mark the whole prefetch locally non-claimable so a concurrent
	// refill does not load the same ids into a second queue.
	until := time.Now().Add(skipTTL)
	for _, id := range ids {
		c.skip[id] = until
	}
	c.cands[deploymentID] = append(c.cands[deploymentID], ids[1:]...)
	c.mu.Unlock()
	return ids[0], nil
}

// sweepSkipLocked drops expired skip entries (called with mu held).
func (c *Claimer) sweepSkipLocked(now time.Time) {
	for id, until := range c.skip {
		if now.After(until) {
			delete(c.skip, id)
		}
	}
}

// commitIntent enqueues one intent and waits for its verdict. The first
// enqueuer becomes the flusher and drains the queue in MaxBatch bites;
// intents arriving while a flush is in flight ride the next one — the
// group-commit door, applied to claims.
func (c *Claimer) commitIntent(ctx context.Context, in core.ClaimIntent) (core.ClaimVerdict, error) {
	p := &pendingIntent{in: in, trace: httputil.TraceID(ctx), done: make(chan struct{})}
	c.mu.Lock()
	c.queue = append(c.queue, p)
	if !c.flushing {
		c.flushing = true
		go c.flushLoop()
	}
	c.mu.Unlock()
	select {
	case <-p.done:
		return p.v, p.err
	case <-ctx.Done():
		// The intent may still commit on the leader; the job then sits
		// running with no agent until the heartbeat watchdog reclaims
		// it — the same outcome as an agent dying right after a claim.
		return core.ClaimVerdict{}, ctx.Err()
	}
}

// flushLoop drains the intent queue, one leader round trip per batch,
// until the queue is empty.
func (c *Claimer) flushLoop() {
	for {
		c.mu.Lock()
		batch := c.queue
		maxb := c.MaxBatch
		if maxb <= 0 {
			maxb = 64
		}
		if len(batch) > maxb {
			batch = batch[:maxb]
			c.queue = c.queue[maxb:]
		} else {
			c.queue = nil
		}
		if len(batch) == 0 {
			c.flushing = false
			c.mu.Unlock()
			return
		}
		lease := c.lease
		met := c.met
		c.mu.Unlock()

		ins := make([]core.ClaimIntent, len(batch))
		for i, p := range batch {
			ins[i] = p.in
		}
		timeout := c.CommitTimeout
		if timeout <= 0 {
			timeout = 10 * time.Second
		}
		// Detached context: the flush serves every queued claim, not
		// just the caller whose arrival started it. The round trip still
		// carries a trace id — the first one in the batch — so the
		// leader leg of a batched claim remains correlatable.
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		for _, p := range batch {
			if p.trace != "" {
				ctx = httputil.WithTrace(ctx, p.trace)
				break
			}
		}
		if met != nil {
			met.intentBatch.Observe(int64(len(batch)))
		}
		vs, err := c.cl.ClaimIntents(ctx, lease.ID, c.FollowerID, ins)
		cancel()
		if err != nil {
			if errors.Is(err, core.ErrLeaseInvalid) {
				c.invalidateLease(lease.ID)
			}
			for _, p := range batch {
				p.err = err
				close(p.done)
			}
			continue
		}
		for i, p := range batch {
			p.v = vs[i]
			close(p.done)
		}
	}
}
