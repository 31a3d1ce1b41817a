package agent

import (
	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/workload"
)

// PhaseResultsFrom converts a schedule run's per-phase measurements into
// the result document's rows; sched supplies the per-phase mix/distribution
// labels. It lives on the agent side because only an SUT agent runs the
// workload engine: the control server reads the rows back and never links
// the engine that produced them.
func PhaseResultsFrom(sched workload.Schedule, phases []workload.PhaseMeasurement) []core.PhaseResult {
	sched = sched.WithDefaults()
	out := make([]core.PhaseResult, 0, len(phases))
	for _, pm := range phases {
		pr := core.PhaseResult{
			Index:        pm.Index,
			Phase:        pm.Name,
			Operations:   pm.Measurements.Operations,
			Errors:       pm.Measurements.Errors,
			Throughput:   pm.Measurements.Throughput,
			DurationMs:   float64(pm.Duration.Microseconds()) / 1000,
			LatencyP50Us: metrics.Micros(pm.Measurements.Latency.P50),
			LatencyP95Us: metrics.Micros(pm.Measurements.Latency.P95),
			LatencyP99Us: metrics.Micros(pm.Measurements.Latency.P99),
		}
		if pm.Index < len(sched.Phases) {
			p := sched.Phases[pm.Index]
			pr.Mix = p.Mix.String()
			pr.Distribution = p.Distribution
		}
		out = append(out, pr)
	}
	return out
}
