package main

// `chronosctl status -metrics`: scrape GET /metrics and print a curated
// operator summary instead of the raw exposition. The raw text is still
// one curl away; this picks out the handful of numbers that answer "is
// the server healthy" — commit latency, replication lag, claim verdicts
// and request traffic.

import (
	"fmt"
	"strings"

	"chronos/internal/metrics"
	"chronos/pkg/client"
)

// metricsStatus fetches and summarizes the server's /metrics exposition.
func metricsStatus(c *client.Client) error {
	text, err := c.MetricsText()
	if err != nil {
		return err
	}
	samples, err := metrics.ParseText(strings.NewReader(text))
	if err != nil {
		return err
	}
	find := func(name string, kv ...string) (float64, bool) {
		for _, s := range samples {
			if s.Name != name {
				continue
			}
			ok := true
			for i := 0; i+1 < len(kv); i += 2 {
				if s.Label(kv[i]) != kv[i+1] {
					ok = false
					break
				}
			}
			if ok {
				return s.Value, true
			}
		}
		return 0, false
	}
	ms := func(name, q string) string {
		v, ok := find(name, "quantile", q)
		if !ok {
			return "n/a"
		}
		return fmt.Sprintf("%.2fms", v*1000)
	}

	if commits, ok := find("chronos_store_commits_total"); ok {
		rate, _ := find("chronos_store_commit_records_per_second")
		fmt.Printf("store: %.0f commits, %.0f records/s; batch p50 %s p99 %s; %.0f fsyncs\n",
			commits, rate,
			ms("chronos_store_commit_batch_seconds", "0.5"),
			ms("chronos_store_commit_batch_seconds", "0.99"),
			firstOr(find("chronos_store_wal_fsyncs_total")))
	}
	if rows, ok := find("chronos_store_rows"); ok {
		compactions, _ := find("chronos_store_compactions_total")
		fmt.Printf("store: %.0f rows, %.0f compaction(s), compact p99 %s\n",
			rows, compactions, ms("chronos_store_compaction_seconds", "0.99"))
	}
	if lag, ok := find("chronos_repl_lag_segments"); ok {
		stale, _ := find("chronos_repl_staleness_ms")
		boots, _ := find("chronos_repl_bootstraps_total")
		lagBytes, _ := find("chronos_repl_lag_bytes")
		fmt.Printf("repl: lag %.0f segment(s)", lag)
		if lagBytes >= 0 {
			fmt.Printf(" (%s)", humanBytes(int64(lagBytes)))
		}
		fmt.Printf(", staleness %.0fms, %.0f bootstrap(s)", stale, boots)
		// Shipping's batching ratio, the counterpart of the store's
		// commits per fsync: no constant sets it, only the traffic.
		if chunks, _ := find("chronos_repl_chunks_total"); chunks > 0 {
			commits, _ := find("chronos_repl_commits_applied_total")
			fmt.Printf("; shipped %.0f commit(s) in %.0f chunk(s), %.1f commits/chunk", commits, chunks, commits/chunks)
		}
		fmt.Println()
	}
	// Request traffic, aggregated across routes, errors split out.
	var total, errors float64
	for _, s := range samples {
		if s.Name != "chronos_http_requests_total" {
			continue
		}
		total += s.Value
		if code := s.Label("code"); len(code) > 0 && code[0] >= '4' {
			errors += s.Value
		}
	}
	if total > 0 {
		inFlight, _ := find("chronos_http_in_flight")
		fmt.Printf("http: %.0f request(s), %.0f error(s), %.0f in flight\n", total, errors, inFlight)
	}
	return nil
}

// firstOr drops the ok of a (value, ok) lookup, defaulting to 0.
func firstOr(v float64, ok bool) float64 {
	if !ok {
		return 0
	}
	return v
}
