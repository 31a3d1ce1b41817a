package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrent hammers every metric kind from parallel writers
// while scrapers render concurrently; run with -race -cpu=4 it proves
// the registry is data-race free under record/scrape overlap.
func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	ctr := reg.Counter("test_ops_total", "ops")
	vec := reg.CounterVec("test_verdicts_total", "verdicts", "verdict")
	granted := vec.With("granted")
	conflict := vec.With("conflict")
	g := reg.Gauge("test_depth", "depth")
	sum := reg.Summary("test_latency_seconds", "latency", 1e-9)
	reg.GaugeFunc("test_pulled", "pulled", func() float64 { return 42 })

	const writers, perWriter = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ctr.Inc()
				granted.Inc()
				conflict.Add(2)
				g.Add(1)
				sum.Observe(int64(i)*1000 + 1)
			}
		}()
	}
	done := make(chan struct{})
	var scrapes sync.WaitGroup
	for s := 0; s < 4; s++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				var buf bytes.Buffer
				if err := reg.WritePrometheus(&buf); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	scrapes.Wait()

	if got := ctr.Value(); got != writers*perWriter {
		t.Errorf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := granted.Value(); got != writers*perWriter {
		t.Errorf("granted = %d, want %d", got, writers*perWriter)
	}
	if got := conflict.Value(); got != 2*writers*perWriter {
		t.Errorf("conflict = %d, want %d", got, 2*writers*perWriter)
	}
	if got := g.Value(); got != writers*perWriter {
		t.Errorf("gauge = %v, want %d", got, writers*perWriter)
	}
	snap, _ := sum.snapshot()
	if snap.Count != writers*perWriter {
		t.Errorf("summary count = %d, want %d", snap.Count, writers*perWriter)
	}
	// Re-registration under the same name returns the same handle.
	if reg.Counter("test_ops_total", "ops") != ctr {
		t.Error("re-registering a counter returned a new handle")
	}
}

// TestRegistryGolden pins the Prometheus text exposition format byte for
// byte: family ordering, HELP/TYPE comments, label rendering and escaping,
// summary quantile expansion. A change here is a wire-format change.
func TestRegistryGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("chronos_commits_total", "Records committed to the WAL.").Add(7)
	vec := reg.CounterVec("chronos_http_requests_total", "Requests by route and status.", "route", "code")
	vec.With("GET /api/v1/status", "200").Add(3)
	vec.With("POST /api/v1/jobs/claim", "503").Inc()
	reg.Gauge("chronos_store_rows", "Rows resident across all tables.").Set(1234)
	reg.GaugeFunc("chronos_repl_lag_bytes", "Follower byte lag.", func() float64 { return 88 })
	sum := reg.Summary("chronos_commit_batch_seconds", "Group-commit flush latency.", 1e-9)
	for i := 0; i < 100; i++ {
		sum.Observe(1_000_000) // 1ms exactly, on a bucket boundary
	}
	vec.With("GET /weird\"route\\\n", "200").Inc()
	// Braces inside a quoted label value: every parameterised route
	// pattern ("/evaluations/{id}/status") produces one, and the parser
	// must not mistake the '}' for the end of the label set.
	vec.With("GET /api/v1/evaluations/{id}/status", "200").Inc()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	const want = `# HELP chronos_commit_batch_seconds Group-commit flush latency.
# TYPE chronos_commit_batch_seconds summary
chronos_commit_batch_seconds{quantile="0.5"} 0.001
chronos_commit_batch_seconds{quantile="0.9"} 0.001
chronos_commit_batch_seconds{quantile="0.99"} 0.001
chronos_commit_batch_seconds{quantile="0.999"} 0.001
chronos_commit_batch_seconds_sum 0.1
chronos_commit_batch_seconds_count 100
# HELP chronos_commits_total Records committed to the WAL.
# TYPE chronos_commits_total counter
chronos_commits_total 7
# HELP chronos_http_requests_total Requests by route and status.
# TYPE chronos_http_requests_total counter
chronos_http_requests_total{route="GET /api/v1/evaluations/{id}/status",code="200"} 1
chronos_http_requests_total{route="GET /api/v1/status",code="200"} 3
chronos_http_requests_total{route="GET /weird\"route\\\n",code="200"} 1
chronos_http_requests_total{route="POST /api/v1/jobs/claim",code="503"} 1
# HELP chronos_repl_lag_bytes Follower byte lag.
# TYPE chronos_repl_lag_bytes gauge
chronos_repl_lag_bytes 88
# HELP chronos_store_rows Rows resident across all tables.
# TYPE chronos_store_rows gauge
chronos_store_rows 1234
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The parser round-trips what the writer produces.
	samples, err := ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	byName := map[string][]Sample{}
	for _, s := range samples {
		byName[s.Name] = append(byName[s.Name], s)
	}
	if len(byName["chronos_http_requests_total"]) != 4 {
		t.Errorf("parsed %d http series, want 4", len(byName["chronos_http_requests_total"]))
	}
	escaped, braced := false, false
	for _, s := range byName["chronos_http_requests_total"] {
		if s.Label("route") == "GET /weird\"route\\\n" {
			escaped = true
		}
		if s.Label("route") == "GET /api/v1/evaluations/{id}/status" {
			braced = true
		}
	}
	if !escaped {
		t.Error("escaped label value did not round-trip")
	}
	if !braced {
		t.Error("braced route label did not round-trip")
	}
	if v := byName["chronos_commit_batch_seconds_count"][0].Value; v != 100 {
		t.Errorf("parsed summary count = %v, want 100", v)
	}
}

// FuzzParseText holds ParseText to two properties: no input panics it,
// and whatever WritePrometheus renders for a labelled series — label
// values with quotes, backslashes, braces and newlines included — parses
// back to exactly that series.
func FuzzParseText(f *testing.F) {
	f.Fuzz(func(t *testing.T, text, route, code string, n int64) {
		ParseText(strings.NewReader(text))

		reg := NewRegistry()
		reg.CounterVec("fuzz_requests_total", "Requests.", "route", "code").With(route, code).Add(n)
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := ParseText(&buf)
		if err != nil {
			t.Fatalf("route %q code %q: %v", route, code, err)
		}
		if len(samples) != 1 {
			t.Fatalf("route %q code %q: parsed %d samples, want 1", route, code, len(samples))
		}
		s := samples[0]
		if s.Name != "fuzz_requests_total" || len(s.Labels) != 2 ||
			s.Label("route") != route || s.Label("code") != code || s.Value != float64(n) {
			t.Fatalf("route %q code %q value %d parsed back as %+v", route, code, n, s)
		}
	})
}
