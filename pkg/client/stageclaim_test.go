package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"chronos/internal/api"
	"chronos/internal/core"
	"chronos/internal/httputil"
	"chronos/internal/params"
)

// claimCall is one request the scripted queue received: its path below
// /api/v2 and the claimNext field of its body.
type claimCall struct{ path, claimNext string }

// queueEndpoint is a scripted control plane for the claim-ahead tests: it
// hands out job ids "<deployment>/job-N", N counting up per deployment, to
// POST /jobs/claim and to a complete that carries claimNext, answers every
// other agent call with success, and records what arrived. empty makes
// every queue answer "no job"; refuse makes every complete answer 409.
type queueEndpoint struct {
	*fakeEndpoint
	mu     sync.Mutex
	calls  []claimCall
	next   map[string]int
	empty  bool
	refuse bool
}

func newQueueEndpoint(t *testing.T) *queueEndpoint {
	t.Helper()
	e := &queueEndpoint{next: map[string]int{}}
	e.fakeEndpoint = newFakeEndpoint(t, func(_ int64, w http.ResponseWriter, r *http.Request) {
		data, _ := io.ReadAll(r.Body)
		var body struct {
			ClaimNext    string `json:"claimNext"`
			DeploymentID string `json:"deploymentId"`
		}
		json.Unmarshal(data, &body)
		path := strings.TrimPrefix(r.URL.Path, "/api/v2")
		e.mu.Lock()
		defer e.mu.Unlock()
		e.calls = append(e.calls, claimCall{path, body.ClaimNext})
		dep := body.DeploymentID
		switch {
		case path == "/jobs/claim":
		case strings.HasSuffix(path, "/complete") && e.refuse:
			httputil.WriteError(w, http.StatusConflict, core.ErrInvalidTransition)
			return
		case strings.HasSuffix(path, "/complete") && body.ClaimNext != "":
			dep = body.ClaimNext
		default:
			httputil.WriteJSON(w, http.StatusOK, api.StatusResponse{Status: core.StatusRunning})
			return
		}
		resp := api.ClaimResponse{}
		if !e.empty {
			e.next[dep]++
			resp.Job = &core.Job{ID: fmt.Sprintf("%s/job-%d", dep, e.next[dep]), Status: core.StatusRunning, Attempts: 1, DeploymentID: dep}
			resp.Parameters = []params.Definition{{Name: "threads"}}
		}
		httputil.WriteJSON(w, http.StatusOK, resp)
	})
	return e
}

func (e *queueEndpoint) seen() []claimCall {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]claimCall(nil), e.calls...)
}

func (e *queueEndpoint) set(empty, refuse bool) {
	e.mu.Lock()
	e.empty, e.refuse = empty, refuse
	e.mu.Unlock()
}

// TestStageClaimRidesOnlyItsComplete pins the client half of claim-next:
// staging costs no request; the stage rides that job's Complete and no
// other call; the job it brings back is returned by the next ClaimJob with
// no request, once; and a Complete nobody staged for asks for nothing.
func TestStageClaimRidesOnlyItsComplete(t *testing.T) {
	e := newQueueEndpoint(t)
	c := NewClient(e.ts.URL, WithVersion("v2"))
	c.StageClaim("job-a", "dep-1")
	if n := e.hits.Load(); n != 0 {
		t.Fatalf("StageClaim issued %d request(s)", n)
	}
	if _, err := c.Progress("job-a", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Heartbeat("job-a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete("job-b", []byte(`{}`), nil); err != nil { // another job's call
		t.Fatal(err)
	}
	if err := c.Complete("job-a", []byte(`{}`), nil); err != nil {
		t.Fatal(err)
	}
	want := []claimCall{
		{"/jobs/job-a/progress", ""},
		{"/jobs/job-a/heartbeat", ""},
		{"/jobs/job-b/complete", ""},
		{"/jobs/job-a/complete", "dep-1"},
	}
	if got := e.seen(); !reflect.DeepEqual(got, want) {
		t.Fatalf("requests = %q, want %q", got, want)
	}

	// The held job: returned without a request, with what the claim
	// response carried, and never twice.
	hits := e.hits.Load()
	job, defs, err := c.ClaimJob("dep-1")
	if err != nil || job == nil || job.ID != "dep-1/job-1" || len(defs) != 1 {
		t.Fatalf("ClaimJob after a claiming Complete = %+v, %v, %v", job, defs, err)
	}
	if n := e.hits.Load() - hits; n != 0 {
		t.Fatalf("returning the held job took %d request(s)", n)
	}
	if other, _, err := c.ClaimJob("dep-2"); err != nil || other == nil || other.ID != "dep-2/job-1" {
		t.Fatalf("another deployment's ClaimJob = %+v, %v", other, err)
	}
	again, _, err := c.ClaimJob("dep-1")
	if err != nil || again == nil || again.ID != "dep-1/job-2" {
		t.Fatalf("second ClaimJob = %+v, %v, want a fresh claim", again, err)
	}
	if n := e.hits.Load() - hits; n != 2 {
		t.Fatalf("two real claims took %d request(s)", n)
	}

	// The stage was used up: the same job's next Complete is plain.
	if err := c.Complete("job-a", []byte(`{}`), nil); err != nil {
		t.Fatal(err)
	}
	if last := e.seen()[len(e.seen())-1]; last != (claimCall{"/jobs/job-a/complete", ""}) {
		t.Fatalf("unstaged Complete sent %q", last)
	}

	// A Fail drops the stage for its job; it rides no later call either.
	c.StageClaim("job-f", "dep-1")
	if err := c.Fail("job-f", "boom"); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete("job-f", []byte(`{}`), nil); err != nil {
		t.Fatal(err)
	}
	calls := e.seen()
	if got := calls[len(calls)-2:]; !reflect.DeepEqual(got, []claimCall{{"/jobs/job-f/fail", ""}, {"/jobs/job-f/complete", ""}}) {
		t.Fatalf("after a Fail: %q", got)
	}
	if held, _, _ := c.ClaimJob("dep-1"); held == nil || held.ID != "dep-1/job-3" {
		t.Fatalf("ClaimJob after a dropped stage = %+v, want a fresh claim", held)
	}
}

// TestStageClaimOutcomes: a Complete that errs drops its stage and holds
// nothing, an empty-queue answer holds nothing, and in both cases the next
// Complete may ask again.
func TestStageClaimOutcomes(t *testing.T) {
	e := newQueueEndpoint(t)
	c := NewClient(e.ts.URL, WithVersion("v2"))

	e.set(false, true)
	c.StageClaim("job-a", "dep-1")
	if err := c.Complete("job-a", []byte(`{}`), nil); err == nil {
		t.Fatal("refused Complete returned no error")
	}
	e.set(false, false)
	if job, _, err := c.ClaimJob("dep-1"); err != nil || job == nil || job.ID != "dep-1/job-1" {
		t.Fatalf("ClaimJob after a failed claiming Complete = %+v, %v, want a real claim", job, err)
	}
	if err := c.Complete("job-a", []byte(`{}`), nil); err != nil {
		t.Fatal(err)
	}

	e.set(true, false)
	c.StageClaim("job-b", "dep-1")
	if err := c.Complete("job-b", []byte(`{}`), nil); err != nil {
		t.Fatal(err)
	}
	hits := e.hits.Load()
	if job, _, err := c.ClaimJob("dep-1"); err != nil || job != nil {
		t.Fatalf("ClaimJob on an empty queue = %+v, %v", job, err)
	}
	if n := e.hits.Load() - hits; n != 1 {
		t.Fatalf("ClaimJob after an empty answer took %d request(s), want a real one", n)
	}

	e.set(false, false)
	c.StageClaim("job-c", "dep-1")
	if err := c.Complete("job-c", []byte(`{}`), nil); err != nil {
		t.Fatal(err)
	}
	want := []claimCall{
		{"/jobs/job-a/complete", "dep-1"}, // refused
		{"/jobs/claim", ""},
		{"/jobs/job-a/complete", ""}, // the stage died with the error
		{"/jobs/job-b/complete", "dep-1"},
		{"/jobs/claim", ""},
		{"/jobs/job-c/complete", "dep-1"}, // neither outcome left the slot taken
	}
	if got := e.seen(); !reflect.DeepEqual(got, want) {
		t.Fatalf("requests = %q, want %q", got, want)
	}

	// One job ahead per deployment, never two: with job-2 held, the next
	// staged Complete goes out plain instead of stranding it.
	c.StageClaim("job-d", "dep-1")
	if err := c.Complete("job-d", []byte(`{}`), nil); err != nil {
		t.Fatal(err)
	}
	if last := e.seen()[len(e.seen())-1]; last != (claimCall{"/jobs/job-d/complete", ""}) {
		t.Fatalf("Complete with a job already held sent %q", last)
	}
	if job, _, _ := c.ClaimJob("dep-1"); job == nil || job.ID != "dep-1/job-2" {
		t.Fatalf("held job = %+v", job)
	}
}

// TestHandBack: with nothing held it is no request; with a job held it is
// one release of that job, after which nothing is held.
func TestHandBack(t *testing.T) {
	e := newQueueEndpoint(t)
	c := NewClient(e.ts.URL, WithVersion("v2"))
	if err := c.HandBack("dep-1"); err != nil {
		t.Fatal(err)
	}
	if n := e.hits.Load(); n != 0 {
		t.Fatalf("HandBack with nothing held issued %d request(s)", n)
	}
	c.StageClaim("job-a", "dep-1")
	if err := c.Complete("job-a", []byte(`{}`), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.HandBack("dep-2"); err != nil { // another deployment's
		t.Fatal(err)
	}
	if err := c.HandBack("dep-1"); err != nil {
		t.Fatal(err)
	}
	if err := c.HandBack("dep-1"); err != nil {
		t.Fatal(err)
	}
	want := []claimCall{{"/jobs/job-a/complete", "dep-1"}, {"/jobs/dep-1/job-1/release", ""}}
	if got := e.seen(); !reflect.DeepEqual(got, want) {
		t.Fatalf("requests = %q, want %q", got, want)
	}
	if job, _, _ := c.ClaimJob("dep-1"); job == nil || job.ID != "dep-1/job-2" {
		t.Fatalf("ClaimJob after HandBack = %+v, want a fresh claim", job)
	}
}

// TestStageClaimTwoDeployments runs two agents' loops, each on its own
// deployment, over one client at once: every job goes to the deployment it
// was claimed for, none is returned twice, and each loop is one claim plus
// one request per job. Meaningful under -race.
func TestStageClaimTwoDeployments(t *testing.T) {
	e := newQueueEndpoint(t)
	c := NewClient(e.ts.URL, WithVersion("v2"))
	const jobs = 40
	var wg sync.WaitGroup
	got := make([][]string, 2)
	for i, dep := range []string{"dep-1", "dep-2"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < jobs; n++ {
				job, _, err := c.ClaimJob(dep)
				if err != nil || job == nil {
					t.Errorf("%s: claim %d = %+v, %v", dep, n, job, err)
					return
				}
				got[i] = append(got[i], job.ID)
				c.StageClaim(job.ID, dep)
				if err := c.Complete(job.ID, []byte(`{}`), nil); err != nil {
					t.Error(err)
					return
				}
			}
			if err := c.HandBack(dep); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, dep := range []string{"dep-1", "dep-2"} {
		for n, id := range got[i] {
			if want := fmt.Sprintf("%s/job-%d", dep, n+1); id != want {
				t.Fatalf("%s ran %q as its job %d, want %s", dep, id, n+1, want)
			}
		}
	}
	// Per loop: the first claim, one complete per job, the last hand-back.
	if n := e.hits.Load(); n != 2*(1+jobs+1) {
		t.Fatalf("%d requests, want %d", n, 2*(1+jobs+1))
	}
}

// TestClaimAheadAgainstServer drives the three calls against the real
// server: the Complete's claim is the one a ClaimJob would have made
// (definitions included on v2), a hand-back leaves the job scheduled with
// its attempt unspent, and a disabled deployment is ErrInactiveDeployment
// to errors.Is, not a string.
func TestClaimAheadAgainstServer(t *testing.T) {
	ts := newServer(t)
	c := NewClient(ts.URL, WithVersion("v2"))
	u, _ := c.CreateUser("sdk", core.RoleAdmin)
	p, _ := c.CreateProject("p", "", u.ID, nil)
	sys, err := c.RegisterSystem("sue", "", []params.Definition{
		{Name: "threads", Type: params.TypeInterval, Min: 1, Max: 8, Default: params.Int(1)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	dep, _ := c.CreateDeployment(sys.ID, "d", "", "")
	exp, err := c.CreateExperiment(p.ID, sys.ID, "sweep", "", map[string][]params.Value{
		"threads": {params.Int(1), params.Int(2), params.Int(3)},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, jobs, err := c.CreateEvaluation(exp.ID)
	if err != nil {
		t.Fatal(err)
	}

	first, _, err := c.ClaimJob(dep.ID)
	if err != nil || first == nil {
		t.Fatal(first, err)
	}
	c.StageLog(first.ID, "bye\n")
	c.StageClaim(first.ID, dep.ID)
	if err := c.Complete(first.ID, []byte(`{"v":1}`), nil); err != nil {
		t.Fatal(err)
	}
	ahead, err := c.GetJob(jobs[1].ID)
	if err != nil || ahead.Status != core.StatusRunning || ahead.Attempts != 1 {
		t.Fatalf("job claimed ahead = %+v, %v", ahead, err)
	}
	second, defs, err := c.ClaimJob(dep.ID)
	if err != nil || second == nil || second.ID != jobs[1].ID || len(defs) != 1 || defs[0].Name != "threads" {
		t.Fatalf("ClaimJob = %+v, %v, %v", second, defs, err)
	}
	c.StageClaim(second.ID, dep.ID)
	if err := c.Complete(second.ID, []byte(`{"v":2}`), nil); err != nil {
		t.Fatal(err)
	}
	if err := c.HandBack(dep.ID); err != nil {
		t.Fatal(err)
	}
	third, err := c.GetJob(jobs[2].ID)
	if err != nil || third.Status != core.StatusScheduled || third.Attempts != 0 || third.DeploymentID != "" {
		t.Fatalf("handed-back job = %+v, %v", third, err)
	}
	tl, _ := c.JobTimeline(third.ID)
	if len(tl) != 3 || tl[1].Kind != core.EventClaimed || tl[2].Kind != core.EventReleased {
		t.Fatalf("handed-back job's timeline = %+v", tl)
	}

	if err := c.SetDeploymentActive(dep.ID, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ClaimJob(dep.ID); !errors.Is(err, core.ErrInactiveDeployment) {
		t.Fatalf("claim on a disabled deployment: %v, want core.ErrInactiveDeployment", err)
	}
	if _, _, err := c.ClaimJob("deployment-missing"); err == nil || errors.Is(err, core.ErrInactiveDeployment) {
		t.Fatalf("claim on an unknown deployment: %v", err)
	}
	if err := c.SetDeploymentActive(dep.ID, true); err != nil {
		t.Fatal(err)
	}
	if job, _, err := c.ClaimJob(dep.ID); err != nil || job == nil || job.ID != third.ID || job.Attempts != 1 {
		t.Fatalf("claim after re-enabling = %+v, %v", job, err)
	}
}
