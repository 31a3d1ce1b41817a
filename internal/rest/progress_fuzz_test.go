package rest

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"chronos/internal/api"
	"chronos/internal/core"
	"chronos/internal/httputil"
)

// FuzzProgressBody: the bodies of POST /jobs/{id}/progress and of v2's
// POST /jobs/{id}/update are agent input, and each goes through the real
// handler against claimedJob's memory store. No body panics the handler
// or gets a 5xx. A refused body leaves the job's progress and events as
// they were; an accepted one stores exactly the progress it carries,
// clamped to 0-100 (none, for an update without a percent), leaves the
// job running with its events unchanged, and stores its log, if it has
// one, as one chunk. The seeds are committed under
// testdata/fuzz/FuzzProgressBody.
func FuzzProgressBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, route := range []string{"progress", "update"} {
			svc, h, jobID := claimedJob(t)
			before, err := svc.GetJob(jobID)
			if err != nil {
				t.Fatal(err)
			}
			events, err := svc.JobTimeline(jobID)
			if err != nil {
				t.Fatal(err)
			}
			r := httptest.NewRequest(http.MethodPost, "/api/v2/jobs/"+jobID+"/"+route, bytes.NewReader(body))
			r.Header.Set("Content-Type", "application/json")
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			if w.Code >= 500 {
				t.Fatalf("%s %q: %d %s", route, body, w.Code, w.Body)
			}
			job, err := svc.GetJob(jobID)
			if err != nil {
				t.Fatal(err)
			}
			after, err := svc.JobTimeline(jobID)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(after, events) {
				t.Fatalf("%s %q (%d): the events went from %+v to %+v", route, body, w.Code, events, after)
			}
			want := before.Progress
			if w.Code == http.StatusOK {
				var q api.BatchUpdateRequest
				if err := httputil.DecodeJSON(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), &q); err != nil {
					t.Fatalf("%s %q was accepted, but does not decode: %v", route, body, err)
				}
				if route == "progress" && q.Percent == nil {
					q.Percent = new(int64) // ProgressRequest's percent is 0 when absent
				}
				if q.Percent != nil {
					want = min(max(*q.Percent, 0), 100)
				}
				if job.Status != core.StatusRunning {
					t.Fatalf("%s %q was accepted, and the job is %s", route, body, job.Status)
				}
				logs, err := svc.JobLogs(jobID)
				if err != nil {
					t.Fatal(err)
				}
				if wantLogs := btoi(q.Log != ""); len(logs) != wantLogs || wantLogs == 1 && logs[0].Text != q.Log {
					t.Fatalf("%s %q was accepted, and the log is %+v", route, body, logs)
				}
			}
			if job.Progress != want {
				t.Fatalf("%s %q (%d): progress %d, want %d", route, body, w.Code, job.Progress, want)
			}
		}
	})
}
