package agent

import (
	"fmt"
	"maps"
	"strings"

	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/params"
	"chronos/internal/workload"
)

// SUT is the contract a simulated system under evaluation implements for
// SimRunner: everything else about a job — parameters, the workload
// stream, measurement and the result document — is the runner's.
type SUT interface {
	// Load opens the store and ingests the data set cfg describes.
	Load(rc *RunContext, cfg workload.Config) error
	// WarmUp touches the loaded data so the measured run starts warm.
	WarmUp(rc *RunContext) error
	// Apply executes one generated operation. The runner's workers call it
	// concurrently; a returned error counts the operation as failed.
	Apply(op workload.Op) error
	// Stats returns the family's keys of the result document and the text
	// the analyze log line ends with.
	Stats() (doc map[string]any, note string)
	// Close releases the store.
	Close() error
}

// Family describes one simulator family: the system it registers, how it
// names the parameters every family shares, and how to open its SUT. The
// defaults of all parameters are the ones its Definition declares.
type Family struct {
	// Name is the system name registered in Chronos Control.
	Name string
	// Definition returns the system's parameter definitions and diagrams.
	Definition func() ([]params.Definition, []core.DiagramSpec)
	// Workload names the workload config and its static phase.
	Workload string
	// Records names the parameter that sizes the loaded data set.
	Records string
	// Mix names the operations the "mix" ratio's two parts weight.
	Mix [2]workload.OpType
	// Open reads the family's own parameters, with the Definition's
	// defaults filled in, and returns a SUT that is not loaded yet.
	Open func(a params.Assignment) (SUT, error)
}

// SimRunner runs one job of a simulator family through the five phases:
// Prepare loads the SUT, WarmUp warms it, Execute drives the job's
// schedule through SUT.Apply, Analyze renders the result document and
// Clean closes the SUT.
type SimRunner struct {
	Family Family

	sut     SUT
	sched   workload.Schedule
	threads int
	meas    metrics.Measurements
	phases  []workload.PhaseMeasurement
}

// config derives the workload configuration, schedule and thread count
// from a job's parameters, defaults filled in. With no "schedule"
// parameter the schedule is the config's one-phase degenerate case; a
// non-empty schedule DSL replaces the phase list while keeping the
// config's table shape and seed.
func (f Family) config(a params.Assignment) (cfg workload.Config, sched workload.Schedule, threads int, err error) {
	threads = int(a.Int("threads", 1))
	if threads < 1 {
		return cfg, sched, 0, fmt.Errorf("%s: %d threads", f.Name, threads)
	}
	parts, _ := a["mix"].AsRatio()
	if len(parts) != 2 {
		return cfg, sched, 0, fmt.Errorf("%s: mix %v is not a two-part ratio", f.Name, a["mix"])
	}
	cfg = workload.Config{
		Name:           f.Workload,
		RecordCount:    a.Int(f.Records, 0),
		OperationCount: a.Int("operations", 0),
		Mix:            workload.Mix{f.Mix[0]: float64(parts[0]), f.Mix[1]: float64(parts[1])},
		Distribution:   a.String("distribution", ""),
		// Seed precedence: explicit job parameter, then
		// CHRONOS_SESSION_SEED (so harness replays pin the workload
		// stream too), then the fixed default.
		Seed: a.Int("seed", workload.SeedFromEnv(42)),
	}
	cfg = cfg.WithDefaults()
	if err = cfg.Validate(); err != nil {
		return cfg, sched, 0, err
	}
	sched = cfg.Schedule()
	if spec := a.String("schedule", ""); spec != "" {
		if sched.Phases, err = workload.ParseSchedulePhases(spec); err != nil {
			return cfg, sched, 0, err
		}
		sched = sched.WithDefaults()
		if err = sched.Validate(); err != nil {
			return cfg, sched, 0, err
		}
	}
	return cfg, sched, threads, nil
}

// Config is config over the defaults f's definitions declare: the
// workload configuration, schedule and thread count a job with
// parameters a runs.
func (f Family) Config(a params.Assignment) (workload.Config, workload.Schedule, int, error) {
	return f.config(f.withDefaults(a))
}

// withDefaults returns a over the defaults f's definitions declare.
func (f Family) withDefaults(a params.Assignment) params.Assignment {
	defs, _ := f.Definition()
	out := make(params.Assignment, len(defs)+len(a))
	for _, d := range defs {
		out[d.Name] = d.Default
	}
	maps.Copy(out, a)
	return out
}

// Prepare opens the SUT and loads the data set (paper §1: "the generation
// of benchmark data and their ingestion").
func (r *SimRunner) Prepare(rc *RunContext) error {
	a := r.Family.withDefaults(rc.Params())
	cfg, sched, threads, err := r.Family.config(a)
	if err != nil {
		return err
	}
	r.sched, r.threads = sched, threads
	if r.sut, err = r.Family.Open(a); err != nil {
		return err
	}
	return r.sut.Load(rc, cfg)
}

// WarmUp warms the SUT.
func (r *SimRunner) WarmUp(rc *RunContext) error { return r.sut.WarmUp(rc) }

// Execute runs the measured operation schedule.
func (r *SimRunner) Execute(rc *RunContext) error {
	total, _ := r.sched.TotalOperations()
	rc.Logf("execute: phases=%d ops=%d threads=%d", len(r.sched.Phases), total, r.threads)
	for i, p := range r.sched.Phases {
		rc.Logf("  phase %d %q: mix=%s dist=%s", i, p.Name, p.Mix, p.Distribution)
	}
	sm, err := workload.RunSchedule(r.sched, r.threads, r.sut.Apply, func(done, total int64) {
		rc.SetProgress(done * 100 / total)
	}, rc.Err)
	if err != nil {
		return err
	}
	r.meas = sm.Total
	r.phases = sm.Phases
	return rc.Err()
}

// Analyze renders the result document Chronos Control visualises, and
// attaches the per-operation latencies as latencies.csv.
func (r *SimRunner) Analyze(rc *RunContext) (map[string]any, error) {
	result, note := r.sut.Stats()
	lat := r.meas.Latency
	rc.Logf("analyze: %.0f ops/s, p95=%.1fus%s", r.meas.Throughput, metrics.Micros(lat.P95), note)
	result["throughput"] = r.meas.Throughput
	result["operations"] = r.meas.Operations
	result["errors"] = r.meas.Errors
	result["latency_mean_us"] = lat.Mean / 1000
	result["latency_p50_us"] = metrics.Micros(lat.P50)
	result["latency_p95_us"] = metrics.Micros(lat.P95)
	result["latency_p99_us"] = metrics.Micros(lat.P99)
	if len(r.phases) > 1 {
		result[core.PhaseResultsKey] = PhaseResultsFrom(r.sched, r.phases)
	}
	var csv strings.Builder
	csv.WriteString("operation,count,mean_ns,p50_ns,p95_ns,p99_ns\n")
	for _, name := range r.meas.SortedOperationNames() {
		s := r.meas.PerOperation[name]
		fmt.Fprintf(&csv, "%s,%d,%.0f,%d,%d,%d\n", name, s.Count, s.Mean, s.P50, s.P95, s.P99)
	}
	rc.AttachFile("latencies.csv", []byte(csv.String()))
	return result, nil
}

// Clean closes the SUT, if Prepare got as far as opening one.
func (r *SimRunner) Clean(rc *RunContext) error {
	if r.sut == nil {
		return nil
	}
	return r.sut.Close()
}

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
