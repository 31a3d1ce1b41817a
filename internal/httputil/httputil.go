// Package httputil provides the small shared HTTP plumbing of Chronos
// Control: JSON envelopes, request decoding with size limits, a logging
// and panic-recovery middleware, and request ids for correlating agent
// traffic in the logs.
package httputil

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// MaxBodyBytes bounds request bodies (result archives are the largest
// legitimate payloads).
const MaxBodyBytes = 64 << 20

// envelope is the uniform response wrapper: exactly one of Data or Error
// is set.
type envelope struct {
	Data  any    `json:"data,omitempty"`
	Error string `json:"error,omitempty"`
}

// appender is a value that writes its own JSON: AppendJSON appends to
// dst, byte for byte, what encoding/json writes for the value.
type appender interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// WriteJSON writes a success envelope. data that appends its own JSON is
// appended straight into the body — encoding/json would re-scan every
// byte a Marshaler returns — with the bytes json.Encoder writes.
func WriteJSON(w http.ResponseWriter, status int, data any) {
	a, ok := data.(appender)
	if !ok {
		write(w, status, envelope{Data: data})
		return
	}
	body, err := a.AppendJSON(append(make([]byte, 0, 4096), `{"data":`...))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err != nil {
		log.Printf("httputil: encode response: %v", err)
		return
	}
	w.Write(append(body, "}\n"...))
}

// WriteError writes an error envelope.
func WriteError(w http.ResponseWriter, status int, err error) {
	write(w, status, envelope{Error: err.Error()})
}

func write(w http.ResponseWriter, status int, env envelope) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors after the header is out can only be logged.
	if err := json.NewEncoder(w).Encode(env); err != nil {
		log.Printf("httputil: encode response: %v", err)
	}
}

// DecodeJSON parses the request body into dst, rejecting unknown fields
// and oversized bodies.
func DecodeJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

// ErrInvalidEnvelope marks a response body that is not a well-formed
// envelope at all — a truncated or damaged transfer rather than a
// server-stated error. Clients treat it as retryable.
var ErrInvalidEnvelope = errors.New("invalid response envelope")

// ReadEnvelope parses a response produced by WriteJSON/WriteError into
// data (a pointer, or nil to discard) and returns the embedded error if
// set. Used by the Go client SDK.
//
// The body is parsed once, straight into data: encoding/json follows the
// non-nil pointer the envelope's Data field holds. A body that is not
// JSON (truncated, empty, damaged) or not an envelope (a value of the
// wrong kind, at the top or in "error") is ErrInvalidEnvelope; an
// envelope whose data does not fit data answers json's own error.
func ReadEnvelope(body []byte, data any) error {
	if data == nil {
		data = new(json.RawMessage)
	}
	env := struct {
		Data  any    `json:"data"`
		Error string `json:"error"`
	}{Data: data}
	err := json.Unmarshal(body, &env)
	var syntax *json.SyntaxError
	var mistyped *json.UnmarshalTypeError
	if errors.As(err, &syntax) || errors.As(err, &mistyped) && mistyped.Field != "data" && !strings.HasPrefix(mistyped.Field, "data.") {
		return fmt.Errorf("%w: %v", ErrInvalidEnvelope, err)
	}
	if env.Error != "" {
		return fmt.Errorf("%s", env.Error)
	}
	return err
}

var requestCounter atomic.Int64

// statusRecorder captures the response code for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// defaultSlowOp is the slow-op log threshold when AccessLog.SlowOp is
// unset: long enough that healthy traffic never trips it, short enough
// to flag a commit stuck behind a struggling disk or a gated read
// waiting out its whole budget.
const defaultSlowOp = 500 * time.Millisecond

// AccessLog is the access-logging middleware with trace propagation,
// slow-op flagging, per-route metrics and panic recovery.
type AccessLog struct {
	// Logger receives the access log; nil uses the default logger.
	Logger *log.Logger
	// SlowOp is the duration at or above which a request additionally
	// logs a "slow op" line carrying its trace id, so one slow claim or
	// gated read can be matched to the client attempt behind it. Zero
	// means the 500ms default; negative flags every request (tests).
	SlowOp time.Duration
	// Metrics, when non-nil, records per-route request counts, status
	// codes and latency.
	Metrics *RequestMetrics
}

// Wrap applies the middleware to next. Every request gets a trace id —
// the caller's X-Chronos-Trace if it sent one, a freshly minted one
// otherwise — echoed on the response and printed on every log line for
// the request. A panicking handler yields a 500 instead of killing the
// control server (requirement iii: reliability).
func (a AccessLog) Wrap(next http.Handler) http.Handler {
	logger := a.Logger
	if logger == nil {
		logger = log.Default()
	}
	slow := a.SlowOp
	if slow == 0 {
		slow = defaultSlowOp
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestCounter.Add(1)
		trace := sanitizeTrace(r.Header.Get(HeaderTrace))
		if trace == "" {
			trace = MintTraceID()
		}
		w.Header().Set(HeaderTrace, trace)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		if a.Metrics != nil {
			a.Metrics.inFlight.Add(1)
		}
		defer func() {
			if p := recover(); p != nil {
				logger.Printf("req %d trace=%s: panic: %v", id, trace, p)
				WriteError(rec, http.StatusInternalServerError, fmt.Errorf("internal error"))
			}
			elapsed := time.Since(start)
			// The route pattern the mux matched (set through the request
			// pointer during ServeHTTP) keys the metrics; unmatched
			// requests share one series instead of exploding cardinality.
			route := r.Pattern
			if route == "" {
				route = "unrouted"
			}
			if a.Metrics != nil {
				a.Metrics.observe(route, rec.status, elapsed)
			}
			logger.Printf("req %d trace=%s: %s %s -> %d (%v)", id, trace, r.Method, r.URL.Path, rec.status, elapsed.Round(time.Microsecond))
			if elapsed >= slow {
				logger.Printf("req %d trace=%s: slow op: %s %s -> %d took %v (threshold %v)",
					id, trace, r.Method, r.URL.Path, rec.status, elapsed.Round(time.Microsecond), slow)
			}
		}()
		next.ServeHTTP(rec, r)
	})
}
