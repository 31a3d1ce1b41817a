package agent

import (
	"context"

	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/params"
)

// Exports for this directory's external tests, which import the simulator
// families and so cannot be part of this package.

// SUT returns the SUT Prepare opened.
func (r *SimRunner) SUT() SUT { return r.sut }

// NewTestRunContext returns the RunContext of a job with parameters a that
// is never aborted.
func NewTestRunContext(a params.Assignment) *RunContext {
	return &RunContext{Job: &core.Job{Params: a}, Timer: metrics.NewPhaseTimer(nil), ctx: context.Background()}
}
