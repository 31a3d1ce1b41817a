package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"chronos/internal/relstore"
)

// Claim leases delegate scheduling to replication followers. The leader
// partitions the job-id space by hash and grants each live follower a
// time-bounded lease over a disjoint subset of partitions. A follower
// picks claim candidates from its own replica (jobs whose partition it
// holds), ships claim intents back to the leader, and the leader commits
// them authoritatively — the scheduled→running transition still happens
// in exactly one leader transaction, so leases are a contention
// optimisation, never a correctness mechanism. An intent that loses a
// race (job already claimed, or the partition map changed under the
// follower) is rejected with a verdict before any agent sees the job.

// ErrLeaseInvalid reports a claim-intent batch carrying a lease the
// leader does not recognise: expired, superseded by a newer grant, or
// issued by a previous leader incarnation (the table is in-memory soft
// state, so a leader restart invalidates every outstanding lease).
var ErrLeaseInvalid = errors.New("core: claim lease invalid")

// DefaultClaimPartitions is the size of the job-id hash space leases
// divide. It only bounds how finely claims can spread across followers;
// any value ≥ the follower count works.
const DefaultClaimPartitions = 16

// PartitionOf maps a job id onto one of n hash partitions (FNV-1a).
// Followers and the leader must agree on this function: a follower
// selects candidates by it, the leader re-checks intents with it.
func PartitionOf(jobID string, n int) int {
	if n <= 0 {
		n = DefaultClaimPartitions
	}
	h := fnv.New32a()
	h.Write([]byte(jobID))
	return int(h.Sum32() % uint32(n))
}

// Lease is a follower's claim delegation: which hash partitions it may
// serve claims for, and for how long. Expiry is relative (ExpiresInMs
// from the moment the leader answered) so follower and leader clocks
// never need to agree.
type Lease struct {
	ID            string `json:"id"`
	FollowerID    string `json:"followerId"`
	Partitions    []int  `json:"partitions"`
	NumPartitions int    `json:"numPartitions"`
	TTLMs         int64  `json:"ttlMs"`
	ExpiresInMs   int64  `json:"expiresInMs"`
	// Granted / Rejected count intent verdicts over the lease's lifetime
	// (kept across renewals).
	Granted  int64 `json:"granted"`
	Rejected int64 `json:"rejected"`
}

// covers reports whether the lease includes the partition.
func (l Lease) covers(part int) bool {
	for _, p := range l.Partitions {
		if p == part {
			return true
		}
	}
	return false
}

// ClaimIntent is a follower's request to commit one claim it selected
// from its replica.
type ClaimIntent struct {
	JobID        string `json:"jobId"`
	DeploymentID string `json:"deploymentId"`
}

// Verdict codes for claim intents.
const (
	// ClaimGranted: the job is claimed; Job carries the committed row.
	ClaimGranted = "granted"
	// ClaimConflict: the job was no longer claimable (already claimed,
	// finished, aborted, pruned, or its deployment went inactive).
	ClaimConflict = "conflict"
	// ClaimRepartitioned: the job's partition is no longer covered by
	// the follower's lease; the follower should renew and re-select.
	ClaimRepartitioned = "repartitioned"
)

// ClaimVerdict is the leader's per-intent answer.
type ClaimVerdict struct {
	JobID  string `json:"jobId"`
	Code   string `json:"code"`
	Reason string `json:"reason,omitempty"`
	Job    *Job   `json:"job,omitempty"`
}

// ClaimerStatus summarises a follower's claim delegate for /status.
type ClaimerStatus struct {
	FollowerID  string `json:"followerId"`
	Lease       *Lease `json:"lease,omitempty"`
	Served      int64  `json:"served"`
	Conflicts   int64  `json:"conflicts"`
	LeaseFaults int64  `json:"leaseFaults"`
}

// leaseTable is the leader's in-memory lease registry. Soft state by
// design: it protects nothing — exactly-once comes from the job state
// machine inside leader transactions — so losing it on restart merely
// costs followers one re-grant round trip.
type leaseTable struct {
	mu     sync.Mutex
	n      int // partition count, fixed at the first grant
	seq    int64
	leases map[string]*Lease // by follower id
	expiry map[string]time.Time
}

// GrantClaimLease grants (or renews) followerID's claim lease and
// rebalances partitions round-robin over all live followers. TTL is
// clamped to [50ms, 5m]; zero means 10s.
func (s *Service) GrantClaimLease(followerID string, ttl time.Duration) (Lease, error) {
	if followerID == "" {
		return Lease{}, fmt.Errorf("core: lease needs a follower id")
	}
	switch {
	case ttl == 0:
		ttl = 10 * time.Second
	case ttl < 50*time.Millisecond:
		ttl = 50 * time.Millisecond
	case ttl > 5*time.Minute:
		ttl = 5 * time.Minute
	}
	t := &s.leases
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	t.expireLocked(now)
	if t.leases == nil {
		t.leases = map[string]*Lease{}
		t.expiry = map[string]time.Time{}
	}
	if t.n == 0 {
		t.n = s.ClaimPartitions
		if t.n <= 0 {
			t.n = DefaultClaimPartitions
		}
	}
	l := t.leases[followerID]
	if l == nil {
		t.seq++
		l = &Lease{
			ID:            fmt.Sprintf("lease-%s-%d", followerID, t.seq),
			FollowerID:    followerID,
			NumPartitions: t.n,
		}
		t.leases[followerID] = l
		t.rebalanceLocked()
	}
	l.TTLMs = ttl.Milliseconds()
	l.ExpiresInMs = l.TTLMs
	t.expiry[followerID] = now.Add(ttl)
	if s.met != nil {
		s.met.leaseGrants.Inc()
	}
	return t.snapshotLocked(l, now), nil
}

// ClaimLeases returns the partition count and a snapshot of all live
// leases (for the status endpoint and chronosctl).
func (s *Service) ClaimLeases() (int, []Lease) {
	t := &s.leases
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	t.expireLocked(now)
	out := make([]Lease, 0, len(t.leases))
	for _, l := range t.leases {
		out = append(out, t.snapshotLocked(l, now))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FollowerID < out[j].FollowerID })
	return t.n, out
}

// ExpireClaimLeases drops leases past their TTL and rebalances the
// survivors. The heartbeat watchdog calls this on every sweep, so a dead
// follower's partitions are reclaimed on the same cadence as a dead
// agent's jobs; GrantClaimLease and CommitClaimIntents also expire
// lazily, so the protocol stays correct without a watchdog. Returns the
// follower ids whose leases lapsed.
func (s *Service) ExpireClaimLeases() []string {
	t := &s.leases
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.expireLocked(time.Now())
}

func (t *leaseTable) expireLocked(now time.Time) []string {
	var gone []string
	for id, at := range t.expiry {
		if !now.Before(at) {
			gone = append(gone, id)
			delete(t.expiry, id)
			delete(t.leases, id)
		}
	}
	if len(gone) > 0 {
		t.rebalanceLocked()
	}
	return gone
}

// rebalanceLocked reassigns the partition space round-robin over the
// live followers in sorted-id order, so every grant and expiry yields a
// deterministic disjoint cover of all partitions.
func (t *leaseTable) rebalanceLocked() {
	ids := make([]string, 0, len(t.leases))
	for id := range t.leases {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, l := range t.leases {
		l.Partitions = l.Partitions[:0]
	}
	if len(ids) == 0 {
		return
	}
	for p := 0; p < t.n; p++ {
		l := t.leases[ids[p%len(ids)]]
		l.Partitions = append(l.Partitions, p)
	}
}

// snapshotLocked copies a lease entry with its remaining TTL.
func (t *leaseTable) snapshotLocked(l *Lease, now time.Time) Lease {
	out := *l
	out.Partitions = append([]int(nil), l.Partitions...)
	if at, ok := t.expiry[l.FollowerID]; ok {
		out.ExpiresInMs = max(at.Sub(now).Milliseconds(), 0)
	}
	return out
}

// CommitClaimIntents authoritatively commits a follower's batch of claim
// intents in one storage transaction: one WAL record and one (group)
// fsync cover every granted claim in the batch, which is what makes
// fan-out through followers cheaper than per-claim leader transactions.
// Each intent gets its own verdict — losing a claim race is a per-job
// conflict, not a batch failure. The whole batch is refused with
// ErrLeaseInvalid when the lease itself is unknown or expired, so a
// follower can never serve claims on a lapsed delegation.
func (s *Service) CommitClaimIntents(leaseID, followerID string, intents []ClaimIntent) ([]ClaimVerdict, error) {
	t := &s.leases
	t.mu.Lock()
	t.expireLocked(time.Now())
	l := t.leases[followerID]
	if l == nil || l.ID != leaseID {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w: no live lease %s for follower %s", ErrLeaseInvalid, leaseID, followerID)
	}
	lease := *l
	lease.Partitions = append([]int(nil), l.Partitions...)
	t.mu.Unlock()

	verdicts := make([]ClaimVerdict, len(intents))
	var granted, rejected int64
	err := s.store.db.Update(func(tx *relstore.Tx) error {
		deps := map[string]*Deployment{}
		for i, in := range intents {
			v := &verdicts[i]
			*v = ClaimVerdict{JobID: in.JobID}
			if part := PartitionOf(in.JobID, lease.NumPartitions); !lease.covers(part) {
				v.Code = ClaimRepartitioned
				v.Reason = fmt.Sprintf("partition %d not held by lease %s", part, lease.ID)
				rejected++
				continue
			}
			dep, ok := deps[in.DeploymentID]
			if !ok {
				var err error
				dep, err = s.store.GetDeployment(tx, in.DeploymentID)
				if err != nil && !errors.Is(err, relstore.ErrNotFound) {
					return err
				}
				deps[in.DeploymentID] = dep
			}
			if dep == nil {
				v.Code = ClaimConflict
				v.Reason = "deployment " + in.DeploymentID + " not found"
				rejected++
				continue
			}
			if !dep.Active {
				v.Code = ClaimConflict
				v.Reason = "deployment " + dep.ID + " inactive"
				rejected++
				continue
			}
			j, err := s.store.GetJob(tx, in.JobID)
			if errors.Is(err, relstore.ErrNotFound) {
				v.Code = ClaimConflict
				v.Reason = "job not found"
				rejected++
				continue
			}
			if err != nil {
				return err
			}
			if j.Status != StatusScheduled || j.SystemID != dep.SystemID {
				v.Code = ClaimConflict
				v.Reason = fmt.Sprintf("job is %s", j.Status)
				rejected++
				continue
			}
			if err := s.grant(tx, j, dep.ID,
				"claimed by "+dep.Name+" ("+dep.ID+") via follower "+followerID); err != nil {
				return err
			}
			v.Code = ClaimGranted
			v.Job = j
			granted++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if cur := t.leases[followerID]; cur != nil && cur.ID == leaseID {
		cur.Granted += granted
		cur.Rejected += rejected
	}
	t.mu.Unlock()
	if s.met != nil {
		s.met.observeIntents(verdicts)
	}
	return verdicts, nil
}

// ClaimCandidates streams the ids of scheduled jobs claimable under the
// deployment, filtered by include, up to limit. Followers run this
// against their replica to pick intent candidates: an id-only scalar
// projection, so no job JSON is decoded while scanning past partitions
// the lease does not cover. The deployment checks mirror ClaimJob's so a
// follower answers ErrInactiveDeployment (a definitive no) locally.
func (s *Service) ClaimCandidates(deploymentID string, include func(jobID string) bool, limit int) ([]string, error) {
	if limit <= 0 {
		limit = 16
	}
	var ids []string
	err := s.store.db.View(func(tx *relstore.Tx) error {
		systemID, _, active, err := s.store.DeploymentClaimInfo(tx, deploymentID)
		if err != nil {
			return mapNotFound(err)
		}
		if !active {
			return ErrInactiveDeployment
		}
		return s.store.EachJobIDByStatus(tx, StatusScheduled, systemID, func(id string) bool {
			if include == nil || include(id) {
				ids = append(ids, id)
			}
			return len(ids) < limit
		})
	})
	if err != nil {
		return nil, err
	}
	return ids, nil
}
