package client

import (
	"errors"
	"net/http"
	"testing"
	"time"

	"chronos/internal/api"
	"chronos/internal/core"
	"chronos/internal/httputil"
)

// Claim routing: a claim is a write. With WithLeader, POST /jobs/claim is
// exactly one request, to the leader, whatever the leader answers — the
// follower the client reads from never hears of it, and riding out a
// leader that is unavailable is the caller's policy (Agent.ClaimRetries),
// not the client's. The scripted leader below pins each answer.

func serveClaim(w http.ResponseWriter, jobID string) {
	httputil.WriteJSON(w, http.StatusOK, api.ClaimResponse{
		Job: &core.Job{ID: jobID, Status: core.StatusRunning, Attempts: 1},
	})
}

func TestClaimRouting(t *testing.T) {
	cases := []struct {
		name   string
		leader func(w http.ResponseWriter)

		wantJob string
		wantErr error
	}{
		{
			name:    "the leader serves the claim",
			leader:  func(w http.ResponseWriter) { serveClaim(w, "job-1") },
			wantJob: "job-1",
		},
		{
			// No work is a success with a nil job.
			name: "empty claim is final",
			leader: func(w http.ResponseWriter) {
				httputil.WriteJSON(w, http.StatusOK, api.ClaimResponse{})
			},
		},
		{
			// 409 is the claim's result and keeps the sentinel Agent.Run
			// idles on.
			name: "definitive conflict is not retried",
			leader: func(w http.ResponseWriter) {
				httputil.WriteError(w, http.StatusConflict, core.ErrInactiveDeployment)
			},
			wantErr: core.ErrInactiveDeployment,
		},
		{
			// A restarting leader: the error surfaces after one attempt,
			// and the follower is not asked in its place.
			name:    "an unavailable leader is not retried here",
			leader:  serve503,
			wantErr: ErrUnavailable,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			follower := newFakeEndpoint(t, func(_ int64, w http.ResponseWriter, r *http.Request) {
				serveClaim(w, "job-from-the-follower")
			})
			leader := newFakeEndpoint(t, func(_ int64, w http.ResponseWriter, r *http.Request) {
				if r.Method != http.MethodPost || r.URL.Path != "/api/v2/jobs/claim" {
					t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
				}
				tc.leader(w)
			})
			c := NewClient(follower.ts.URL, WithVersion("v2"), WithLeader(leader.ts.URL),
				WithRetries(4), WithBackoff(time.Millisecond, 5*time.Millisecond))
			job, _, err := c.ClaimJob("dep-1")
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("claim error = %v, want %v", err, tc.wantErr)
			}
			switch {
			case tc.wantJob == "" && job != nil:
				t.Fatalf("want no job, got %+v", job)
			case tc.wantJob != "" && (job == nil || job.ID != tc.wantJob):
				t.Fatalf("want job %s, got %+v", tc.wantJob, job)
			}
			if l, f := leader.hits.Load(), follower.hits.Load(); l != 1 || f != 0 {
				t.Errorf("leader saw %d request(s) and the follower %d, want 1 and 0", l, f)
			}
		})
	}

	// A job claimed ahead by a Complete came from the leader too, and
	// handing it out is no request to anyone.
	t.Run("a held job costs no request", func(t *testing.T) {
		follower := newFakeEndpoint(t, func(_ int64, w http.ResponseWriter, r *http.Request) {
			t.Errorf("the follower was asked: %s %s", r.Method, r.URL.Path)
		})
		leader := newQueueEndpoint(t)
		c := NewClient(follower.ts.URL, WithVersion("v2"), WithLeader(leader.ts.URL))
		c.StageClaim("job-a", "dep-1")
		if err := c.Complete("job-a", []byte(`{}`), nil); err != nil {
			t.Fatal(err)
		}
		job, _, err := c.ClaimJob("dep-1")
		if err != nil || job == nil || job.ID != "dep-1/job-1" {
			t.Fatalf("ClaimJob after a claiming Complete = %+v, %v", job, err)
		}
		if n := leader.hits.Load(); n != 1 {
			t.Fatalf("leader saw %d request(s), want the one complete", n)
		}
	})
}
