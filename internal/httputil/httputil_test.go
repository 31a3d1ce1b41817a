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
