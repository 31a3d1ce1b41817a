package core

// Service observability: pre-resolved handles for how jobs leave the
// queue and come back to it (chronos_jobs_*) and the watchdog
// (chronos_watchdog_*).
// SetMetrics resolves them once at wiring time; every instrumentation
// site pays a single nil check when metrics are off.

import (
	"time"

	"chronos/internal/metrics"
)

// svcMetrics carries the service's instrumentation handles.
type svcMetrics struct {
	// Jobs handed out by the claim body, by the call that ran it:
	// POST /jobs/claim, or a complete that asked for the next job.
	claimedByClaim    *metrics.Counter
	claimedByComplete *metrics.Counter
	// released counts claimed jobs handed back unrun (ReleaseJob).
	released  *metrics.Counter
	sweepSecs *metrics.Summary
}

// SetMetrics instruments the service into reg. Call once at startup,
// before traffic; a nil registry leaves instrumentation off.
func (s *Service) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	claimed := reg.CounterVec("chronos_jobs_claimed_total",
		"Jobs handed out by the leader, by the call that claimed them.", "via")
	s.met = &svcMetrics{
		claimedByClaim:    claimed.With("claim"),
		claimedByComplete: claimed.With("complete"),
		released: reg.Counter("chronos_jobs_released_total",
			"Claimed jobs handed back unrun, attempt not spent."),
		sweepSecs: reg.Summary("chronos_watchdog_sweep_seconds",
			"Duration of watchdog heartbeat sweeps.", 1e-9),
	}
}

// observeSweep records one watchdog sweep duration.
func (m *svcMetrics) observeSweep(elapsed time.Duration) {
	m.sweepSecs.ObserveDuration(elapsed)
}
