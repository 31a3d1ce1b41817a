//go:build linux

package main

// Where a number comes from (README, "Sources").
const (
	srcLoadgen = "U" // timed by the load generator in the untraced run
	srcLadder  = "L" // ladder rung in the traced run
	srcSpans   = "S" // span wrappers in the traced run
	srcMetrics = "M" // counter delta scraped from the child's /metrics
	srcProc    = "P" // /proc or the data directory
	srcResult  = "R" // uploaded result or job timeline
)

// metricDef declares one metric the benchmark prints. The table below is
// the single place names, units, directions and bounds live: the report,
// the -repeat check, BENCHMARK.json (checked by the smoke test) and the
// README tables all follow it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the regression bound of an end-to-end metric: the share
	// of the median by which it may get worse. 0 for per-layer metrics.
	Bound float64
	// Layer is the module a per-layer metric belongs to; "" marks an
	// end-to-end metric.
	Layer  string
	Source string
	// Workloads the metric is defined on; nil means all four. A metric
	// that is not defined for a workload is omitted from its row.
	Workloads []string
	// Contract names the BENCHMARK.json list the metric is in, "" for
	// none: end_to_end holds the end-to-end metrics that are defined on
	// every workload and never zero, per_layer the metrics every traced
	// run measures on every workload. The driver's result line carries
	// exactly these.
	Contract string
}

const (
	inEndToEnd = "end_to_end"
	inPerLayer = "per_layer"
)

var (
	noopWorkloads = []string{wlFleetNoop, wlMixedRW, wlFollowerReads}
	viewed        = []string{wlMixedRW, wlFollowerReads}
)

// endToEnd are the gated metrics: what BENCHMARK.json lists under
// end_to_end and the driver's result line carries with tracing off. Every
// workload reports all of them. Three are ratios of the workload to its
// twin (twin.go), because on this shared host no wall-clock number holds
// a bound: a job's round trip, the jobs finished per second of work, and
// the servers' CPU time per job, each over the same quantity of the twin
// jobs that ran between the workload's jobs. The fourth, setup_s, must be
// in seconds: it is the set-up time scaled by how much slower than
// nominal the set-up twin ran right after it. The raw timings the ratios
// are made of, and the ISSUE's other end-to-end metrics, are printed with
// the layer "raw" below and carry no bound.
//
// Bounds follow README "Bounds".
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Source: srcLoadgen, Contract: inEndToEnd},
	{Name: "job_rtt_x", Unit: "x", Better: "lower", Bound: 0.25, Source: srcLoadgen, Contract: inEndToEnd},
	{Name: "jobs_per_s_x", Unit: "x", Better: "higher", Bound: 0.25, Source: srcLoadgen, Contract: inEndToEnd},
}

func layer(l, src, name, unit, better string, contract bool, workloads ...string) metricDef {
	m := metricDef{Name: name, Unit: unit, Better: better, Layer: l, Source: src, Workloads: workloads}
	if contract {
		m.Contract = inPerLayer
	}
	return m
}

// perLayer lists the per-layer metrics by module. Ladder and span
// metrics do not depend on the workload (the traced run has fleet_noop's
// shape); M, P and R metrics come from the workload's untraced run.
var perLayer = []metricDef{
	// raw: the wall-clock numbers a user of Chronos sees on this host at
	// this moment (the ISSUE's end-to-end list). They move with the host
	// by tens of percent from run to run, so they carry no bound.
	layer("raw", srcLoadgen, "setup_raw_s", "s", "lower", true),
	layer("raw", srcLoadgen, "jobs_per_s", "1/s", "higher", true),
	layer("raw", srcLoadgen, "job_rtt_p50_ms", "ms", "lower", true),
	layer("raw", srcLoadgen, "job_rtt_p25_ms", "ms", "lower", false, noopWorkloads...),
	layer("raw", srcLoadgen, "claim_p50_ms", "ms", "lower", false, noopWorkloads...),
	layer("raw", srcProc, "server_cpu_ms_per_job", "ms", "lower", true),
	layer("raw", srcLoadgen, "recovery_s", "s", "lower", false, wlFleetNoop),
	layer("raw", srcResult, "doc_ops_per_s", "1/s", "higher", false, wlEvalHeavy),
	layer("raw", srcResult, "ts_ops_per_s", "1/s", "higher", false, wlEvalHeavy),
	layer("raw", srcLoadgen, "submit_jobs_per_s", "1/s", "higher", false, wlMixedRW),
	layer("raw", srcLoadgen, "status_read_p50_ms", "ms", "lower", false, viewed...),
	layer("raw", srcLoadgen, "list_read_p50_ms", "ms", "lower", false, wlMixedRW),
	layer("raw", srcLoadgen, "ryw_read_p50_ms", "ms", "lower", false, wlFollowerReads),
	layer("raw", srcLoadgen, "failed_share", "ratio", "lower", true),
	// twin: the yardstick's own numbers, and the host's weather
	layer("twin", srcLoadgen, "twin.job_p25_ms", "ms", "lower", true),
	layer("twin", srcLoadgen, "twin.jobs_per_s", "1/s", "higher", true),
	layer("twin", srcProc, "twin.server_cpu_ms_per_job", "ms", "lower", false, noopWorkloads...),
	layer("twin", srcProc, "cpu_per_job_x", "x", "lower", true),
	layer("twin", srcLoadgen, "twin.setup_ms", "ms", "lower", true),
	layer("twin", srcProc, "hw.steal_share", "ratio", "lower", true),
	// agent
	layer("agent", srcSpans, "agent.calls_per_job", "count", "lower", true),
	layer("agent", srcSpans, "agent.self_us_per_job", "us", "lower", true),
	layer("agent", srcLoadgen, "agent.job_rtt_p99_ms", "ms", "lower", true),
	layer("agent", srcResult, "agent.overhead_p50_ms", "ms", "lower", false, wlEvalHeavy),
	// pkg/client
	layer("client", srcLadder, "client.claim_p50_us", "us", "lower", true),
	layer("client", srcLadder, "client.complete_p50_us", "us", "lower", true),
	layer("client", srcLadder, "client.progress_p50_us", "us", "lower", true),
	layer("client", srcLadder, "client.appendlog_p50_us", "us", "lower", true),
	layer("client", srcSpans, "client.self_us_per_call", "us", "lower", true),
	layer("client", srcSpans, "client.transport_us_per_call", "us", "lower", true),
	layer("client", srcSpans, "client.attempts_per_call", "count", "lower", true),
	layer("client", srcLadder, "client.claim_allocs", "count", "lower", true),
	// rest (+httputil)
	layer("rest", srcLadder, "rest.claim_inproc_p50_us", "us", "lower", true),
	layer("rest", srcLadder, "rest.complete_inproc_p50_us", "us", "lower", true),
	layer("rest", srcLadder, "rest.claim_self_us", "us", "lower", true),
	layer("rest", srcSpans, "rest.busy_us_per_job", "us", "lower", true),
	layer("rest", srcMetrics, "rest.requests_per_job", "count", "lower", true),
	layer("rest", srcLadder, "rest.claim_allocs", "count", "lower", true),
	// core
	layer("core", srcLadder, "core.claim_p50_us", "us", "lower", true),
	layer("core", srcLadder, "core.complete_p50_us", "us", "lower", true),
	layer("core", srcLadder, "core.progress_p50_us", "us", "lower", true),
	layer("core", srcLadder, "core.appendlog_p50_us", "us", "lower", true),
	layer("core", srcLadder, "core.claim_mem_p50_us", "us", "lower", true),
	layer("core", srcLadder, "core.complete_mem_p50_us", "us", "lower", true),
	layer("core", srcLadder, "core.claim_allocs", "count", "lower", true),
	layer("core", srcLadder, "core.create_evaluation_us_per_job", "us", "lower", true),
	layer("core", srcLadder, "core.list_jobs_us_per_row", "us", "lower", true),
	layer("core", srcLadder, "core.evaluation_status_p50_us", "us", "lower", true),
	// relstore: transactions, locks, planner
	layer("relstore", srcLadder, "relstore.update_mem_p50_us", "us", "lower", true),
	layer("relstore", srcLadder, "relstore.select_eq_limit1_p50_us", "us", "lower", true),
	layer("relstore", srcLadder, "relstore.view_scan_us_per_row", "us", "lower", true),
	layer("relstore", srcMetrics, "relstore.rows_end", "count", "lower", true),
	// relstore.wal: group commit, fsync, compaction, recovery
	layer("relstore.wal", srcLadder, "relstore.wal.commit_p50_us", "us", "lower", true),
	layer("relstore.wal", srcLadder, "relstore.wal.commit_nosync_p50_us", "us", "lower", true),
	layer("relstore.wal", srcLadder, "relstore.wal.fsync_wait_p50_us", "us", "lower", true),
	layer("relstore.wal", srcLadder, "relstore.wal.bytes_per_job", "B", "lower", true),
	layer("relstore.wal", srcMetrics, "relstore.wal.commits_per_job", "count", "lower", true),
	layer("relstore.wal", srcMetrics, "relstore.wal.fsyncs_per_job", "count", "lower", true),
	layer("relstore.wal", srcMetrics, "relstore.wal.commits_per_fsync", "count", "higher", true),
	layer("relstore.wal", srcMetrics, "relstore.wal.compactions", "count", "lower", true),
	layer("relstore.wal", srcMetrics, "relstore.wal.compaction_p50_ms", "ms", "lower", false),
	layer("relstore.wal", srcProc, "relstore.wal.disk_bytes_end", "B", "lower", true),
	layer("relstore.wal", srcProc, "relstore.wal.replay_rows_per_s", "1/s", "higher", false, wlFleetNoop),
	// repl
	layer("repl", srcMetrics, "repl.lag_bytes_p50", "B", "lower", false, wlFollowerReads),
	layer("repl", srcMetrics, "repl.staleness_ms_p50", "ms", "lower", false, wlFollowerReads),
	layer("repl", srcProc, "repl.follower_cpu_ms_per_job", "ms", "lower", false, wlFollowerReads),
	// workload engine and the two systems under evaluation
	layer("workload", srcLadder, "workload.engine_ns_per_op", "ns", "lower", true),
	layer("mongosim", srcLadder, "mongosim.read_ns_per_op", "ns", "lower", true),
	layer("mongosim", srcLadder, "mongosim.update_ns_per_op", "ns", "lower", true),
	layer("mongosim", srcLadder, "mongosim.insert_ns_per_op", "ns", "lower", true),
	layer("tssim", srcLadder, "tssim.append_ns_per_op", "ns", "lower", true),
	layer("tssim", srcLadder, "tssim.window_ns_per_op", "ns", "lower", true),
	layer("mongoagent", srcResult, "mongoagent.prepare_ms_p50", "ms", "lower", false, wlEvalHeavy),
	layer("mongoagent", srcResult, "mongoagent.execute_ms_p50", "ms", "lower", false, wlEvalHeavy),
	layer("mongoagent", srcResult, "mongoagent.result_bytes_p50", "B", "lower", false, wlEvalHeavy),
	layer("tsagent", srcResult, "tsagent.prepare_ms_p50", "ms", "lower", false, wlEvalHeavy),
	layer("tsagent", srcResult, "tsagent.execute_ms_p50", "ms", "lower", false, wlEvalHeavy),
	layer("tsagent", srcResult, "tsagent.result_bytes_p50", "B", "lower", false, wlEvalHeavy),
	// process and harness
	layer("process", srcProc, "control.rss_peak_mb", "MB", "lower", true),
	layer("harness", srcProc, "loadgen.cpu_ms_per_job", "ms", "lower", true),
	layer("harness", srcLoadgen, "loadgen.reader_late_p99_ms", "ms", "lower", false, wlEvalHeavy, wlMixedRW, wlFollowerReads),
	layer("harness", srcSpans, "trace.overhead_share", "ratio", "lower", true),
	layer("harness", srcProc, "hw.fsync_p50_us", "us", "lower", true),
	layer("harness", srcProc, "hw.nproc", "count", "higher", true),
}

// definedOn reports whether the metric is defined for the workload.
func (m metricDef) definedOn(workload string) bool {
	if len(m.Workloads) == 0 {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// contractMetrics returns one BENCHMARK.json list (inEndToEnd or
// inPerLayer): what the driver's result line carries with tracing off
// and on respectively.
func contractMetrics(list string) []metricDef {
	var out []metricDef
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if m.Contract == list {
			out = append(out, m)
		}
	}
	return out
}
