package httputil

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chronos/internal/core"
	"chronos/internal/params"
)

func TestWriteAndReadEnvelope(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusCreated, map[string]int{"n": 7})
	if rec.Code != http.StatusCreated {
		t.Fatalf("code = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var out map[string]int
	if err := ReadEnvelope(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out["n"] != 7 {
		t.Fatalf("out = %v", out)
	}
}

func TestWriteErrorRoundTrip(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, http.StatusConflict, errors.New("boom happened"))
	if rec.Code != http.StatusConflict {
		t.Fatalf("code = %d", rec.Code)
	}
	err := ReadEnvelope(rec.Body.Bytes(), nil)
	if err == nil || !strings.Contains(err.Error(), "boom happened") {
		t.Fatalf("err = %v", err)
	}
}

func TestReadEnvelopeDiscardsData(t *testing.T) {
	// nil target: data is ignored without error.
	if err := ReadEnvelope([]byte(`{"data": {"x": 1}}`), nil); err != nil {
		t.Fatal(err)
	}
	if err := ReadEnvelope([]byte(`not json`), nil); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestReadEnvelopeCases: one pass over the body still tells apart what
// pkg/client's retry loop keys on — ErrInvalidEnvelope for a body that is
// not an envelope at all — from a server-stated error and from data that
// does not fit the caller's type.
func TestReadEnvelopeCases(t *testing.T) {
	type item struct {
		N int `json:"n"`
	}
	cases := []struct {
		name, body string
		nilTarget  bool
		want       item   // the target afterwards
		invalid    bool   // ErrInvalidEnvelope
		errText    string // any other error, by substring
	}{
		{name: "success", body: `{"data":{"n":7}}`, want: item{7}},
		{name: "success with newline", body: "{\"data\":{\"n\":7}}\n", want: item{7}},
		{name: "discarded", body: `{"data":{"n":7}}`, nilTarget: true},
		{name: "error", body: `{"error":"boom happened"}`, errText: "boom happened"},
		{name: "empty data", body: `{}`},
		{name: "null data", body: `{"data":null}`},
		{name: "truncated", body: `{"data":{"n":7`, invalid: true},
		{name: "truncated discarded", body: `{"data":{"n":7`, nilTarget: true, invalid: true},
		{name: "empty body", body: ``, invalid: true},
		{name: "not JSON", body: `<html>bad gateway</html>`, invalid: true},
		{name: "not an object", body: `[1,2]`, invalid: true},
		{name: "error not a string", body: `{"error":5}`, invalid: true},
		{name: "data of the wrong kind", body: `{"data":"seven"}`, errText: "cannot unmarshal"},
		{name: "data field of the wrong kind", body: `{"data":{"n":"seven"}}`, errText: "cannot unmarshal"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got item
			var target any = &got
			if c.nilTarget {
				target = nil
			}
			err := ReadEnvelope([]byte(c.body), target)
			switch {
			case c.invalid:
				if !errors.Is(err, ErrInvalidEnvelope) {
					t.Fatalf("err = %v, want ErrInvalidEnvelope", err)
				}
			case c.errText != "":
				if err == nil || errors.Is(err, ErrInvalidEnvelope) || !strings.Contains(err.Error(), c.errText) {
					t.Fatalf("err = %v, want one containing %q and not ErrInvalidEnvelope", err, c.errText)
				}
			case err != nil:
				t.Fatalf("err = %v", err)
			}
			if got != c.want {
				t.Fatalf("target = %+v, want %+v", got, c.want)
			}
		})
	}
}

// BenchmarkReadEnvelope decodes a 500-job EvaluationJobs answer, the
// largest body a viewer polls.
func BenchmarkReadEnvelope(b *testing.B) {
	jobs := make([]*core.Job, 500)
	for i := range jobs {
		jobs[i] = &core.Job{
			ID: fmt.Sprintf("job-%09d", i+1), EvaluationID: "evaluation-000000001", SystemID: "system-000000001",
			Index: int64(i), Params: params.Assignment{"engine": params.String_("wiredtiger"), "threads": params.Int(int64(i%8 + 1))},
			Status: core.StatusFinished, DeploymentID: "deployment-000000001", Progress: 100, Attempts: 1,
			Created: time.Date(2020, 3, 30, 9, 0, 0, 0, time.UTC), Started: time.Date(2020, 3, 30, 9, 1, 0, 0, time.UTC),
			Finished: time.Date(2020, 3, 30, 9, 2, 0, 0, time.UTC), Heartbeat: time.Date(2020, 3, 30, 9, 1, 30, 0, time.UTC),
		}
	}
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, jobs)
	body := rec.Body.Bytes()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var out []*core.Job
		if err := ReadEnvelope(body, &out); err != nil || len(out) != len(jobs) {
			b.Fatalf("decoded %d jobs, %v", len(out), err)
		}
	}
}

func TestDecodeJSON(t *testing.T) {
	type payload struct {
		Name string `json:"name"`
	}
	req := httptest.NewRequest("POST", "/", strings.NewReader(`{"name": "x"}`))
	var p payload
	if err := DecodeJSON(req, &p); err != nil || p.Name != "x" {
		t.Fatalf("decode: %+v, %v", p, err)
	}
	// Unknown fields are rejected.
	req = httptest.NewRequest("POST", "/", strings.NewReader(`{"name": "x", "extra": 1}`))
	if err := DecodeJSON(req, &p); err == nil {
		t.Fatal("unknown field accepted")
	}
	// Broken JSON is rejected.
	req = httptest.NewRequest("POST", "/", strings.NewReader(`{`))
	if err := DecodeJSON(req, &p); err == nil {
		t.Fatal("broken JSON accepted")
	}
}

func TestLogRequestsRecoversPanics(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	h := AccessLog{Logger: logger}.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "internal error") {
		t.Fatalf("body = %s", body)
	}
	logOut := buf.String()
	if !strings.Contains(logOut, "panic: kaboom") || !strings.Contains(logOut, "/boom") {
		t.Fatalf("log = %q", logOut)
	}
}

func TestLogRequestsRecordsStatus(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	h := AccessLog{Logger: logger}.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusTeapot, fmt.Errorf("short and stout"))
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, _ := ts.Client().Get(ts.URL + "/tea")
	resp.Body.Close()
	if !strings.Contains(buf.String(), "-> 418") {
		t.Fatalf("log = %q", buf.String())
	}
}
