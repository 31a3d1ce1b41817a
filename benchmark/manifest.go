//go:build linux

package main

// runSeconds is how long one driver run measures (BENCHMARK.json's
// run_seconds and the default of -seconds).
const runSeconds = 10

// manifest is BENCHMARK.json. It is generated from the metric table
// (go run ./benchmark -manifest) and the smoke test keeps the committed
// file equal to it, so names, units and bounds live in one place.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestGated    `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type manifestGated struct {
	manifestMetric
	Bound float64 `json:"bound"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadNames {
		m.Workloads = append(m.Workloads, manifestWorkload{w, workloadWhy[w]})
	}
	for _, d := range contractMetrics(inEndToEnd) {
		m.EndToEnd = append(m.EndToEnd, manifestGated{manifestMetric{d.Name, d.Unit, d.Better}, d.Bound})
	}
	for _, d := range contractMetrics(inPerLayer) {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better})
	}
	return m
}
