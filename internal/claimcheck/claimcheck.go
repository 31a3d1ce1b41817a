// Package claimcheck verifies exactly-once claim semantics from a
// recorded claim history, in the style of internal/relstore/isocheck
// (and of the online history-checking approach in arXiv 2504.01477):
// rather than trusting that a hand-out scheme "looked right" under load,
// the harness records every grant an agent acknowledged and this
// checker mechanically asserts the invariants against the store's final
// state — no job claimed twice at the same attempt, no claim the store
// does not account for, no job lost on the floor.
//
// The attempt number doubles as the claim epoch: every authoritative
// claim commit increments Job.Attempts inside the leader transaction,
// so two acknowledged grants of the same (job, attempt) pair can only
// mean the same claim was handed to two agents — the exact bug the two
// ways a job leaves the queue (POST /jobs/claim and a Complete that
// claims the next job) and the hand-back between them must never
// introduce.
//
// One commit decrements it again: core.ReleaseJob, the hand-back of a job
// claimed ahead by a Complete (claimNext), returns the job to the queue
// with the attempt unspent, so the next claim of that job reuses the epoch.
// The epoch argument survives because a history records grants an agent
// *acknowledged* — what ClaimJob returned — and pkg/client releases only
// jobs it never returned from ClaimJob: the first use of a reused epoch
// was never in any history, so no acknowledged grant repeats one. A caller
// that released a job it had been handed would break that, and Check would
// say so (duplicate-claim). The proof under stops and restarts is
// faultnet's TestAgentStopsExactlyOnce.
package claimcheck

import (
	"fmt"
	"sort"
	"sync"
)

// Claim is one acknowledged grant: an agent received this job at this
// attempt number through the named endpoint.
type Claim struct {
	Agent   string
	JobID   string
	Attempt int64
	Via     string
}

// Completion is one acknowledged terminal report by an agent.
type Completion struct {
	Agent   string
	JobID   string
	Attempt int64
	OK      bool // the complete call itself succeeded
}

// FinalJob is a job's state at quiescence, read back from the store.
type FinalJob struct {
	ID       string
	Status   string
	Attempts int64
}

// Recorder accumulates the history; safe for concurrent use by
// thousands of agent goroutines.
type Recorder struct {
	mu     sync.Mutex
	claims []Claim
	comps  []Completion
}

// NewRecorder returns an empty history recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Claimed records an acknowledged grant.
func (r *Recorder) Claimed(agent, jobID string, attempt int64, via string) {
	r.mu.Lock()
	r.claims = append(r.claims, Claim{Agent: agent, JobID: jobID, Attempt: attempt, Via: via})
	r.mu.Unlock()
}

// Completed records an acknowledged (or failed) completion call.
func (r *Recorder) Completed(agent, jobID string, attempt int64, ok bool) {
	r.mu.Lock()
	r.comps = append(r.comps, Completion{Agent: agent, JobID: jobID, Attempt: attempt, OK: ok})
	r.mu.Unlock()
}

// History is the immutable view handed to Check.
type History struct {
	Claims      []Claim
	Completions []Completion
}

// History snapshots the recorded operations.
func (r *Recorder) History() History {
	r.mu.Lock()
	defer r.mu.Unlock()
	return History{
		Claims:      append([]Claim(nil), r.claims...),
		Completions: append([]Completion(nil), r.comps...),
	}
}

// Violation is one broken invariant with enough detail to debug it.
type Violation struct {
	Kind   string
	Detail string
}

func (v Violation) String() string { return v.Kind + ": " + v.Detail }

// Check verifies the history against the final job states:
//
//   - duplicate-claim: two acknowledged grants share (job, attempt) —
//     the same claim reached two agents.
//   - phantom-claim: an acknowledged grant the store does not account
//     for (unknown job, attempt ≤ 0, or an attempt number beyond the
//     job's final count).
//   - foreign-completion: an acknowledged successful completion with no
//     matching grant to the same agent at the same attempt.
//   - double-completion: two acknowledged successful completions for
//     one job — a job finishes at most once.
//
// With requireDrained (the harness reached quiescence with every job
// meant to finish):
//
//   - lost-job: a final job that never appears in any acknowledged
//     grant, or did not end finished — a claim (or the job itself) was
//     dropped on the floor.
func Check(h History, finals []FinalJob, requireDrained bool) []Violation {
	var out []Violation
	badf := func(kind, format string, args ...any) {
		out = append(out, Violation{Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}

	finalByID := make(map[string]FinalJob, len(finals))
	for _, f := range finals {
		finalByID[f.ID] = f
	}

	type grant struct {
		jobID   string
		attempt int64
	}
	grants := make(map[grant]Claim, len(h.Claims))
	claimedJobs := make(map[string]int, len(finals))
	for _, c := range h.Claims {
		g := grant{c.JobID, c.Attempt}
		if prev, dup := grants[g]; dup {
			badf("duplicate-claim", "job %s attempt %d granted to both %s (via %s) and %s (via %s)",
				c.JobID, c.Attempt, prev.Agent, prev.Via, c.Agent, c.Via)
		} else {
			grants[g] = c
		}
		claimedJobs[c.JobID]++
		f, known := finalByID[c.JobID]
		switch {
		case !known:
			badf("phantom-claim", "agent %s holds unknown job %s", c.Agent, c.JobID)
		case c.Attempt <= 0 || c.Attempt > f.Attempts:
			badf("phantom-claim", "agent %s holds job %s at attempt %d, store says %d attempts total",
				c.Agent, c.JobID, c.Attempt, f.Attempts)
		}
	}

	okCompleted := make(map[string]Completion, len(h.Completions))
	for _, c := range h.Completions {
		if !c.OK {
			continue
		}
		g, granted := grants[grant{c.JobID, c.Attempt}]
		if !granted || g.Agent != c.Agent {
			badf("foreign-completion", "agent %s completed job %s attempt %d without holding that grant",
				c.Agent, c.JobID, c.Attempt)
		}
		if prev, dup := okCompleted[c.JobID]; dup {
			badf("double-completion", "job %s completed by both %s (attempt %d) and %s (attempt %d)",
				c.JobID, prev.Agent, prev.Attempt, c.Agent, c.Attempt)
		} else {
			okCompleted[c.JobID] = c
		}
	}

	if requireDrained {
		ids := make([]string, 0, len(finals))
		for _, f := range finals {
			ids = append(ids, f.ID)
		}
		sort.Strings(ids)
		for _, id := range ids {
			f := finalByID[id]
			if claimedJobs[id] == 0 {
				badf("lost-job", "job %s (%s) was never granted to any agent", id, f.Status)
			}
			if f.Status != "finished" {
				badf("lost-job", "job %s ended %s after %d attempts, want finished", id, f.Status, f.Attempts)
			}
		}
	}
	return out
}
