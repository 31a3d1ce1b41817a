package core_test

import (
	"encoding/json"
	"testing"
	"time"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/workload"
)

// TestPhaseLatenciesAreFractionalMicros: a phase of a sub-microsecond SUT
// reports its percentiles as fractions of a microsecond, not as the 0 a
// whole-number division makes of them, and survives the result document.
func TestPhaseLatenciesAreFractionalMicros(t *testing.T) {
	var h metrics.Histogram
	for i := 0; i < 1000; i++ {
		h.Record(400) // ns
	}
	rows := agent.PhaseResultsFrom(workload.Schedule{}, []workload.PhaseMeasurement{{
		Name:         "steady",
		Measurements: metrics.Measurements{Operations: 1000, Latency: h.Snapshot()},
		Duration:     time.Millisecond,
	}})
	doc, err := json.Marshal(map[string]any{core.PhaseResultsKey: rows})
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.ParsePhaseResults(doc)
	if err != nil || len(got) != 1 {
		t.Fatalf("parse: %v, %d rows", err, len(got))
	}
	for name, us := range map[string]float64{"p50": got[0].LatencyP50Us, "p95": got[0].LatencyP95Us, "p99": got[0].LatencyP99Us} {
		if us <= 0 || us >= 1 {
			t.Errorf("%s of 400 ns samples = %v us, want a fraction in (0, 1)", name, us)
		}
	}

	// Results stored while the fields were whole numbers still parse.
	old, err := core.ParsePhaseResults([]byte(`{"phaseResults":[{"index":0,"phase":"steady","latencyP50Us":3,"latencyP95Us":16,"latencyP99Us":40}]}`))
	if err != nil || len(old) != 1 || old[0].LatencyP50Us != 3 || old[0].LatencyP99Us != 40 {
		t.Fatalf("integer-era result: %+v, %v", old, err)
	}
}
