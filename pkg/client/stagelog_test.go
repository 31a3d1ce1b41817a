package client

import (
	"encoding/json"
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
)

// recordedCall is one request the scripted endpoint received: its path
// below /api/{v} and the log field of its body.
type recordedCall struct{ path, log string }

// recordingEndpoint answers every agent call with success and records what
// arrived.
type recordingEndpoint struct {
	*fakeEndpoint
	mu    sync.Mutex
	calls []recordedCall
}

func newRecordingEndpoint(t *testing.T) *recordingEndpoint {
	t.Helper()
	e := &recordingEndpoint{}
	e.fakeEndpoint = newFakeEndpoint(t, func(_ int64, w http.ResponseWriter, r *http.Request) {
		data, _ := io.ReadAll(r.Body)
		var body struct {
			Log string `json:"log"`
		}
		json.Unmarshal(data, &body)
		e.mu.Lock()
		e.calls = append(e.calls, recordedCall{strings.TrimPrefix(r.URL.Path, "/api/v2"), body.Log})
		e.mu.Unlock()
		httputil.WriteJSON(w, http.StatusOK, api.StatusResponse{Status: core.StatusRunning})
	})
	return e
}

func (e *recordingEndpoint) seen() []recordedCall {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]recordedCall(nil), e.calls...)
}

// TestStageLogRidesTheNextCall pins the client half of the mechanism:
// staging costs no request, the job's next Progress, Complete or Fail
// carries the text exactly once, two stages arrive concatenated in order,
// and one job's text never rides another job's call.
func TestStageLogRidesTheNextCall(t *testing.T) {
	carriers := map[string]func(c *Client, id string) error{
		"progress": func(c *Client, id string) error { _, err := c.Progress(id, 10); return err },
		"complete": func(c *Client, id string) error { return c.Complete(id, []byte(`{}`), nil) },
		"fail":     func(c *Client, id string) error { return c.Fail(id, "boom") },
	}
	for name, carry := range carriers {
		t.Run(name, func(t *testing.T) {
			e := newRecordingEndpoint(t)
			c := NewClient(e.ts.URL, WithVersion("v2"))
			c.StageLog("job-a", "one\n")
			c.StageLog("job-a", "two\n")
			c.StageLog("job-b", "other\n")
			c.StageLog("job-a", "") // nothing to hold
			if n := e.hits.Load(); n != 0 {
				t.Fatalf("StageLog issued %d request(s)", n)
			}
			for _, id := range []string{"job-a", "job-a", "job-c", "job-b"} {
				if err := carry(c, id); err != nil {
					t.Fatal(err)
				}
			}
			want := []recordedCall{
				{"/jobs/job-a/" + name, "one\ntwo\n"}, // both stages, in order
				{"/jobs/job-a/" + name, ""},           // exactly once
				{"/jobs/job-c/" + name, ""},           // never another job's text
				{"/jobs/job-b/" + name, "other\n"},
			}
			if got := e.seen(); !reflect.DeepEqual(got, want) {
				t.Fatalf("requests = %q, want %q", got, want)
			}
		})
	}

	// The calls a log does not ride leave the staged text where it is.
	e := newRecordingEndpoint(t)
	c := NewClient(e.ts.URL, WithVersion("v2"))
	c.StageLog("job-a", "held\n")
	if _, err := c.Heartbeat("job-a"); err != nil {
		t.Fatal(err)
	}
	if err := c.AppendLog("job-a", "direct\n"); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete("job-a", []byte(`{}`), nil); err != nil {
		t.Fatal(err)
	}
	want := []recordedCall{{"/jobs/job-a/heartbeat", ""}, {"/jobs/job-a/log", ""}, {"/jobs/job-a/complete", "held\n"}}
	if got := e.seen(); !reflect.DeepEqual(got, want) {
		t.Fatalf("requests = %q, want %q", got, want)
	}
}

// TestStageLogConcurrentJobs runs two jobs' stage-and-report loops on one
// client at once (what a process hosting two agents does): every line
// arrives exactly once, in order, in a call for its own job. Meaningful
// under -race.
func TestStageLogConcurrentJobs(t *testing.T) {
	e := newRecordingEndpoint(t)
	c := NewClient(e.ts.URL, WithVersion("v2"))
	const lines = 50
	var wg sync.WaitGroup
	for _, id := range []string{"job-a", "job-b"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				c.StageLog(id, fmt.Sprintf("%s line %d\n", id, i))
				if i%3 == 0 {
					if _, err := c.Progress(id, int64(i)); err != nil {
						t.Error(err)
					}
				}
			}
			if err := c.Complete(id, []byte(`{}`), nil); err != nil {
				t.Error(err)
			}
		}(id)
	}
	wg.Wait()
	got := map[string]string{}
	for _, call := range e.seen() {
		id := strings.Split(call.path, "/")[2]
		if call.log != "" && !strings.HasPrefix(call.log, id+" ") {
			t.Fatalf("%s carried another job's text: %q", call.path, call.log)
		}
		got[id] += call.log
	}
	for _, id := range []string{"job-a", "job-b"} {
		var want strings.Builder
		for i := 0; i < lines; i++ {
			fmt.Fprintf(&want, "%s line %d\n", id, i)
		}
		if got[id] != want.String() {
			t.Fatalf("%s: text arrived as %q", id, got[id])
		}
	}
}

// TestLoginConcurrentWithRequests: Login installs the bearer token while
// other goroutines issue requests on the same client, which the package
// promises is safe. The race detector reports the unguarded token write
// this test was written against.
func TestLoginConcurrentWithRequests(t *testing.T) {
	e := newFakeEndpoint(t, func(_ int64, w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/login") {
			httputil.WriteJSON(w, http.StatusOK, api.LoginResponse{Token: "tok", UserID: "u1", Role: core.RoleAdmin})
			return
		}
		httputil.WriteJSON(w, http.StatusOK, core.Job{ID: "job-1"})
	})
	c := NewClient(e.ts.URL)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := c.GetJob("job-1"); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := c.Login("u", "p"); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
