package core

// Service observability: pre-resolved handles for how jobs leave the
// queue and come back to it (chronos_jobs_*), the claim-delegation path
// (chronos_claim_*) and the watchdog (chronos_watchdog_*).
// SetMetrics resolves them once at wiring time; every instrumentation
// site pays a single nil check when metrics are off.

import (
	"time"

	"chronos/internal/metrics"
)

// svcMetrics carries the service's instrumentation handles.
type svcMetrics struct {
	// Jobs handed out by the leader's own claim body, by the call that ran
	// it: POST /jobs/claim, or a complete that asked for the next job.
	// Delegated grants are chronos_claim_intents_total{verdict="granted"}.
	claimedByClaim    *metrics.Counter
	claimedByComplete *metrics.Counter
	// released counts claimed jobs handed back unrun (ReleaseJob).
	released    *metrics.Counter
	leaseGrants *metrics.Counter
	// intent verdict counters, one per ClaimVerdictCode.
	intentsGranted       *metrics.Counter
	intentsConflict      *metrics.Counter
	intentsRepartitioned *metrics.Counter
	// intentBatch is the size of each committed intent batch — how many
	// delegated claims one leader transaction absorbed.
	intentBatch *metrics.Summary
	sweepSecs   *metrics.Summary
}

// SetMetrics instruments the service into reg. Call once at startup,
// before traffic; a nil registry leaves instrumentation off.
func (s *Service) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	vec := reg.CounterVec("chronos_claim_intents_total",
		"Delegated claim intents by verdict.", "verdict")
	claimed := reg.CounterVec("chronos_jobs_claimed_total",
		"Jobs handed out by the leader, by the call that claimed them.", "via")
	s.met = &svcMetrics{
		claimedByClaim:    claimed.With("claim"),
		claimedByComplete: claimed.With("complete"),
		released: reg.Counter("chronos_jobs_released_total",
			"Claimed jobs handed back unrun, attempt not spent."),
		leaseGrants: reg.Counter("chronos_claim_lease_grants_total",
			"Claim-lease grants and renewals issued to followers."),
		intentsGranted:       vec.With(ClaimGranted),
		intentsConflict:      vec.With(ClaimConflict),
		intentsRepartitioned: vec.With(ClaimRepartitioned),
		intentBatch: reg.Summary("chronos_claim_intent_batch_records",
			"Claim intents per committed leader batch.", 0),
		sweepSecs: reg.Summary("chronos_watchdog_sweep_seconds",
			"Duration of watchdog heartbeat sweeps.", 1e-9),
	}
}

// observeIntents tallies one committed intent batch's verdicts.
func (m *svcMetrics) observeIntents(verdicts []ClaimVerdict) {
	m.intentBatch.Observe(int64(len(verdicts)))
	for _, v := range verdicts {
		switch v.Code {
		case ClaimGranted:
			m.intentsGranted.Inc()
		case ClaimConflict:
			m.intentsConflict.Inc()
		case ClaimRepartitioned:
			m.intentsRepartitioned.Inc()
		}
	}
}

// observeSweep records one watchdog sweep duration.
func (m *svcMetrics) observeSweep(elapsed time.Duration) {
	m.sweepSecs.ObserveDuration(elapsed)
}
