package relstore

// Store observability: the pre-resolved instrumentation handles the
// commit and compaction paths record into. Handles are resolved once at
// Open from the registry passed in Options.Metrics, so the hot path pays
// a single nil check when instrumentation is off and a few atomic adds
// per event when it is on.

import (
	"sync/atomic"
	"time"

	"chronos/internal/metrics"
)

// dbMetrics carries the store's instrumentation handles; nil disables
// instrumentation entirely.
type dbMetrics struct {
	// commitSeconds is the group-commit flush latency: one WAL write +
	// fsync covering every record of the batch. Sampled 1-in-8 (see
	// sampleLatency): the clock reads that bound a batch cost more than
	// everything else on the instrumented path combined, and a summary's
	// quantiles do not need every batch to converge.
	commitSeconds *metrics.Summary
	// commitRecords is the group-commit batch size in records — how many
	// concurrent commits each fsync absorbed. Exact (no clock needed).
	commitRecords *metrics.Summary
	commitsTotal  *metrics.Counter
	fsyncsTotal   *metrics.Counter
	compactSecs   *metrics.Summary

	// batchCtr drives the 1-in-8 latency sampling.
	batchCtr atomic.Uint64
}

// newDBMetrics resolves the store's handles and registers its pull-time
// gauges. Returns nil (instrumentation off) for a nil registry.
func newDBMetrics(reg *metrics.Registry, db *DB) *dbMetrics {
	if reg == nil {
		return nil
	}
	m := &dbMetrics{
		commitSeconds: reg.Summary("chronos_store_commit_batch_seconds",
			"Group-commit flush latency (one WAL write + fsync per batch).", 1e-9),
		commitRecords: reg.Summary("chronos_store_commit_batch_records",
			"Commit records per group-commit batch.", 0),
		commitsTotal: reg.Counter("chronos_store_commits_total",
			"Commit records durably written to the WAL."),
		fsyncsTotal: reg.Counter("chronos_store_wal_fsyncs_total",
			"WAL fsyncs issued (SyncEveryCommit batches)."),
		compactSecs: reg.Summary("chronos_store_compaction_seconds",
			"Duration of completed snapshot+delete compaction cycles.", 1e-9),
	}
	reg.GaugeFunc("chronos_store_rows",
		"Rows resident across all tables.",
		func() float64 { return float64(db.RowCount()) })
	reg.CounterFunc("chronos_store_compactions_total",
		"Completed snapshot+delete compaction cycles since open.",
		func() float64 { return float64(db.compactions.Load()) })
	reg.GaugeFunc("chronos_store_wal_failed",
		"1 while a sticky WAL failure refuses every write (the text is storage.walError on /status), else 0.",
		func() float64 {
			if db.walView.Load().walErr != nil {
				return 1
			}
			return 0
		})
	return m
}

// sampleLatency reports whether the batch about to start should be
// timed. The first batch is always sampled (so short-lived stores and
// tests still populate the latency summary), then every eighth.
func (m *dbMetrics) sampleLatency() bool {
	return m.batchCtr.Add(1)&7 == 1
}

// commitObserved records one group-commit batch. start is the zero time
// for unsampled batches (sampleLatency said no clock was read). This
// runs under the WAL lock, so every saved nanosecond is shared by the
// whole batch behind it: unsampled batches pay only atomic adds, and a
// sampled batch reads the clock once more via time.Since (monotonic
// only, about half the cost of time.Now).
func (m *dbMetrics) commitObserved(recs int, start time.Time, fsynced bool) {
	m.commitRecords.Observe(int64(recs))
	m.commitsTotal.Add(int64(recs))
	if fsynced {
		m.fsyncsTotal.Inc()
	}
	if !start.IsZero() {
		m.commitSeconds.ObserveDuration(time.Since(start))
	}
}
