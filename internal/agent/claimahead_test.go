package agent

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos/internal/core"
	"chronos/internal/params"
	"chronos/internal/rest"
	"chronos/pkg/client"
)

// restControl serves svc over HTTP and returns a v2 client for it plus a
// count of the requests whose path ends in suffix.
func restControl(t *testing.T, svc *core.Service, suffix string) (*client.Client, *atomic.Int64) {
	t.Helper()
	server := rest.NewServer(svc)
	server.Logger = log.New(io.Discard, "", 0)
	api := server.Handler()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, suffix) {
			hits.Add(1)
		}
		api.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return client.NewClient(ts.URL, client.WithVersion("v2")), &hits
}

func eventKinds(t *testing.T, svc *core.Service, jobID string) []core.EventKind {
	t.Helper()
	tl, err := svc.JobTimeline(jobID)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]core.EventKind, len(tl))
	for i, e := range tl {
		out[i] = e.Kind
	}
	return out
}

// stopAfterComplete cancels the agent's context as soon as a Complete has
// been answered: the stop lands between two jobs, with the next one already
// claimed ahead.
type stopAfterComplete struct {
	*recordingControl
	stop context.CancelFunc
}

func (c stopAfterComplete) Complete(id string, resultJSON, archive []byte) error {
	err := c.recordingControl.Complete(id, resultJSON, archive)
	c.stop()
	return err
}

// TestRunStoppedBetweenJobsHandsBack: an agent stopped after a Complete —
// which claimed the next job ahead — gives that job back on its way out.
// It is scheduled again, first in line, its attempt unspent, and the next
// agent runs it.
func TestRunStoppedBetweenJobsHandsBack(t *testing.T) {
	svc, depID := setupJobs(t, 3)
	c, releases := restControl(t, svc, "/release")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rec := &recordingControl{Control: c}
	a := newAgent(t, svc, depID, func() Runner { return &testRunner{} })
	a.Control = stopAfterComplete{rec, cancel}
	a.ReportInterval = time.Hour
	if err := a.Run(ctx); err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if want := []string{"ClaimJob", "StageLog", "StageClaim", "Complete", "HandBack"}; !reflect.DeepEqual(rec.seen(), want) {
		t.Fatalf("control calls = %v, want %v", rec.seen(), want)
	}
	if n := releases.Load(); n != 1 {
		t.Fatalf("%d release request(s), want 1", n)
	}
	evs, _ := svc.ListEvaluations("")
	jobs, _ := svc.ListJobs(evs[0].ID)
	if jobs[0].Status != core.StatusFinished {
		t.Fatalf("first job is %s", jobs[0].Status)
	}
	if j := jobs[1]; j.Status != core.StatusScheduled || j.Attempts != 0 || j.DeploymentID != "" {
		t.Fatalf("job claimed ahead and handed back = %+v", j)
	}
	if got, want := eventKinds(t, svc, jobs[1].ID), []core.EventKind{core.EventCreated, core.EventClaimed, core.EventReleased}; !reflect.DeepEqual(got, want) {
		t.Fatalf("handed-back job's timeline = %v, want %v", got, want)
	}
	if jobs[2].Status != core.StatusScheduled {
		t.Fatalf("third job is %s", jobs[2].Status)
	}

	// A second agent finishes the queue; the handed-back job runs at the
	// attempt it never used.
	b := newAgent(t, svc, depID, func() Runner { return &testRunner{} })
	b.Control = c
	if n, err := b.Drain(context.Background()); err != nil || n != 2 {
		t.Fatalf("second agent drained %d, %v", n, err)
	}
	jobs, _ = svc.ListJobs(evs[0].ID)
	for _, j := range jobs {
		if j.Status != core.StatusFinished || j.Attempts != 1 {
			t.Fatalf("job %s = %s after %d attempt(s)", j.ID, j.Status, j.Attempts)
		}
	}
}

// TestDrainEndsWithNothingHeld: a drain's last Complete finds the queue
// empty, so its closing HandBack has nothing to give back and makes no
// request — and in between, every job but the first arrived with the
// Complete before it, not by a claim request.
func TestDrainEndsWithNothingHeld(t *testing.T) {
	svc, depID := setupJobs(t, 4)
	c, claims := restControl(t, svc, "/jobs/claim")
	rec := &recordingControl{Control: c}
	a := newAgent(t, svc, depID, func() Runner { return &testRunner{} })
	a.Control = rec
	a.ReportInterval = time.Hour
	if n, err := a.Drain(context.Background()); err != nil || n != 4 {
		t.Fatalf("Drain = %d, %v", n, err)
	}
	calls := rec.seen()
	if got, want := calls[len(calls)-2:], []string{"ClaimJob", "HandBack"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("drain ended with %v, want %v", got, want)
	}
	if n := claims.Load(); n != 2 {
		t.Fatalf("%d claim request(s) for 4 jobs, want 2: the first job and the empty answer", n)
	}
	evs, _ := svc.ListEvaluations("")
	jobs, _ := svc.ListJobs(evs[0].ID)
	for _, j := range jobs {
		if j.Status != core.StatusFinished || j.Attempts != 1 {
			t.Fatalf("job %s = %s after %d attempt(s)", j.ID, j.Status, j.Attempts)
		}
		if got := eventKinds(t, svc, j.ID); reflect.DeepEqual(got[len(got)-1:], []core.EventKind{core.EventReleased}) {
			t.Fatalf("job %s was released: %v", j.ID, got)
		}
	}
}

// countingClaims counts ClaimJob calls.
type countingClaims struct {
	Control
	claims atomic.Int64
}

func (c *countingClaims) ClaimJob(dep string) (*core.Job, []params.Definition, error) {
	c.claims.Add(1)
	return c.Control.ClaimJob(dep)
}

// lockedBuffer is a log sink safe to read while the agent writes.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestRunIdlesOnInactiveDeployment: disabling a deployment "for scheduling"
// must not kill its agents. Run polls a disabled deployment for as long as
// it stays disabled — far past ClaimRetries, which is for a control plane
// that is broken, not one that said no — says so once, and picks the work
// up when the deployment is enabled again. The refusal has to survive the
// wire as core.ErrInactiveDeployment.
func TestRunIdlesOnInactiveDeployment(t *testing.T) {
	// The agent reaches the control plane over REST.
	t.Run("rest", func(t *testing.T) {
		var logged lockedBuffer
		log.SetOutput(&logged)
		defer log.SetOutput(os.Stderr)
		svc, depID := setupJobs(t, 1)
		if err := svc.SetDeploymentActive(depID, false); err != nil {
			t.Fatal(err)
		}
		a := newAgent(t, svc, depID, func() Runner { return &testRunner{} })
		cc := &countingClaims{Control: a.Control}
		a.Control = cc
		a.PollInterval = time.Millisecond
		a.ClaimRetries = 2

		// Drain takes the refusal for the idle answer it is.
		if n, err := a.Drain(context.Background()); n != 0 || err != nil {
			t.Fatalf("Drain on a disabled deployment = %d, %v", n, err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		errc := make(chan error, 1)
		go func() { errc <- a.Run(ctx) }()
		deadline := time.After(5 * time.Second)
		for cc.claims.Load() < 5*int64(a.ClaimRetries+1) {
			select {
			case err := <-errc:
				t.Fatalf("Run gave up on a disabled deployment after %d polls: %v", cc.claims.Load(), err)
			case <-deadline:
				t.Fatalf("only %d polls in 5s", cc.claims.Load())
			case <-time.After(time.Millisecond):
			}
		}

		if err := svc.SetDeploymentActive(depID, true); err != nil {
			t.Fatal(err)
		}
		evs, _ := svc.ListEvaluations("")
		for done := false; !done; {
			select {
			case err := <-errc:
				t.Fatalf("Run returned %v before running the job", err)
			case <-deadline:
				t.Fatal("job not finished after the deployment was enabled again")
			case <-time.After(time.Millisecond):
			}
			jobs, _ := svc.ListJobs(evs[0].ID)
			done = jobs[0].Status == core.StatusFinished
		}
		cancel()
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v", err)
		}
		if n := strings.Count(logged.String(), "is inactive"); n != 2 {
			t.Fatalf("inactive deployment logged %d time(s), want once per loop (Drain, Run):\n%s", n, logged.String())
		}
	})
}
