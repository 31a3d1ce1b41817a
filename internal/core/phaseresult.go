package core

import (
	"encoding/json"
	"fmt"
)

// PhaseResult is the per-phase slice of a dynamic-workload job result:
// one row per schedule phase, surfaced as a first-class result through
// the REST API and web UI. Agents build the slice from their workload
// engine's measurements (agent.PhaseResultsFrom) and embed it under the
// "phaseResults" key of the result document; ParsePhaseResults reads it
// back out.
type PhaseResult struct {
	// Index is the phase's position in the schedule.
	Index int `json:"index"`
	// Phase is the phase name.
	Phase string `json:"phase"`
	// Operations and Errors count the phase's completed and failed ops.
	Operations int64 `json:"operations"`
	Errors     int64 `json:"errors"`
	// Throughput is ops/second over the phase's wall window.
	Throughput float64 `json:"throughput"`
	// DurationMs is the phase's wall window in milliseconds.
	DurationMs float64 `json:"durationMs"`
	// Latency percentiles in fractional microseconds (results stored
	// before they were fractional hold whole numbers and parse the same).
	LatencyP50Us float64 `json:"latencyP50Us"`
	LatencyP95Us float64 `json:"latencyP95Us"`
	LatencyP99Us float64 `json:"latencyP99Us"`
	// Mix and Distribution echo the phase's workload shape.
	Mix          string `json:"mix,omitempty"`
	Distribution string `json:"distribution,omitempty"`
}

// PhaseResultsKey is the result-document key holding []PhaseResult.
const PhaseResultsKey = "phaseResults"

// ParsePhaseResults extracts the per-phase rows from a result document.
// A result without the phaseResults key yields an empty slice and no
// error — static one-phase jobs are not an error condition.
func ParsePhaseResults(resultJSON []byte) ([]PhaseResult, error) {
	var doc struct {
		Phases []PhaseResult `json:"phaseResults"`
	}
	if err := json.Unmarshal(resultJSON, &doc); err != nil {
		return nil, fmt.Errorf("core: parse phase results: %w", err)
	}
	return doc.Phases, nil
}

// JobPhaseResults returns the per-phase result rows of a finished job,
// or an empty slice when the job's result carries none.
func (s *Service) JobPhaseResults(jobID string) ([]PhaseResult, error) {
	res, err := s.GetJobResult(jobID)
	if err != nil {
		return nil, err
	}
	return ParsePhaseResults(res.JSON)
}
