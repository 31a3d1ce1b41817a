package repl

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"chronos/internal/api"
	"chronos/internal/core"
	"chronos/internal/httputil"
	"chronos/internal/params"
	"chronos/internal/relstore"
)

// TestClaimerReoffersUndecidedCandidate pins the skip set's early exit:
// an intent the leader answers with "lease invalid" decided nothing
// about the job, so after the re-grant the same id must be a candidate
// again. The fake leader is one memory-store service that also serves as
// the claimer's replica view (zero replication lag); its first intent
// batch is refused with 412, the way a restarted leader that lost its
// lease table answers. Left in the skip set, the only scheduled job
// would be invisible for skipTTL and Claim would report an empty queue.
func TestClaimerReoffersUndecidedCandidate(t *testing.T) {
	svc, err := core.NewService(relstore.OpenMemory(), time.Now)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := svc.CreateUser("u", core.RoleAdmin)
	p, _ := svc.CreateProject("p", "", u.ID, nil)
	defs := []params.Definition{{Name: "i", Type: params.TypeInterval, Min: 1, Max: 2, Default: params.Int(1)}}
	sys, _ := svc.RegisterSystem("sut", "", defs, nil)
	dep, err := svc.CreateDeployment(sys.ID, "d", "", "")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := svc.CreateExperiment(p.ID, sys.ID, "e", "", map[string][]params.Value{"i": {params.Int(1)}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, jobs, err := svc.CreateEvaluation(exp.ID)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("create evaluation: %d jobs, %v", len(jobs), err)
	}

	var batches atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v2/repl/lease", func(w http.ResponseWriter, r *http.Request) {
		var req api.LeaseRequest
		if err := httputil.DecodeJSON(r, &req); err != nil {
			httputil.WriteError(w, http.StatusBadRequest, err)
			return
		}
		l, err := svc.GrantClaimLease(req.FollowerID, time.Duration(req.TTLMs)*time.Millisecond)
		if err != nil {
			httputil.WriteError(w, http.StatusInternalServerError, err)
			return
		}
		httputil.WriteJSON(w, http.StatusOK, l)
	})
	mux.HandleFunc("POST /api/v2/repl/claims", func(w http.ResponseWriter, r *http.Request) {
		var req api.ClaimIntentsRequest
		if err := httputil.DecodeJSON(r, &req); err != nil {
			httputil.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if batches.Add(1) == 1 {
			httputil.WriteError(w, http.StatusPreconditionFailed, core.ErrLeaseInvalid)
			return
		}
		vs, err := svc.CommitClaimIntents(req.LeaseID, req.FollowerID, req.Intents)
		if err != nil {
			httputil.WriteError(w, http.StatusInternalServerError, err)
			return
		}
		httputil.WriteJSON(w, http.StatusOK, api.ClaimIntentsResponse{Verdicts: vs})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := NewClaimer("f1", svc, NewClient(srv.URL, "v2", "", nil))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	job, ok, err := c.Claim(ctx, dep.ID)
	if err != nil || !ok {
		t.Fatalf("claim after one refused batch: ok=%v err=%v; the undecided job stayed hidden", ok, err)
	}
	if job.ID != jobs[0].ID || job.Status != core.StatusRunning {
		t.Fatalf("claimed %s (%s), want %s running", job.ID, job.Status, jobs[0].ID)
	}
	if st := c.Status(); st.Served != 1 || st.LeaseFaults != 1 {
		t.Fatalf("status %+v, want 1 served after 1 lease fault", st)
	}
	if n := batches.Load(); n != 2 {
		t.Fatalf("leader saw %d intent batches, want 2 (refused, then granted)", n)
	}
}
