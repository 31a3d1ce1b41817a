// Package tsagent implements the second system-under-evaluation family
// of the testbed: a Chronos agent runner that benchmarks the tssim
// append-optimized time-series store. Where mongoagent exercises a
// document store under YCSB-style key access, tsagent maps the same
// generated operation stream onto time-series verbs, so both SUT
// families run identical (replayable) workloads and dynamic schedules:
//
//	update  -> append a sample to a chooser-selected existing series
//	read    -> window query over the recent span of a series
//	insert  -> append to a *new* series (cardinality growth)
//	scan    -> window queries across a run of adjacent series
//	rmw     -> latest-sample lookup followed by an append
//
// The runner understands the parameters declared by SystemDefinition:
//
//	series        value(int): preloaded series cardinality
//	points        value(int): samples preloaded per series
//	threads       interval: number of client threads
//	operations    value(int): operations executed in the execute phase
//	mix           ratio: append:window proportions
//	distribution  value(string): zipfian | uniform | latest | sequential
//	window        value(int): query window span in ticks
//	schedule      value(string): phase DSL for dynamic workloads
package tsagent

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/params"
	"chronos/internal/tssim"
	"chronos/internal/workload"
)

// SystemName is the SuE name registered in Chronos Control.
const SystemName = "timeseries-sim"

// SystemDefinition returns the parameter definitions and result diagrams
// used to register the time-series SuE in Chronos Control.
func SystemDefinition() ([]params.Definition, []core.DiagramSpec) {
	defs := []params.Definition{
		{
			Name: "series", Label: "Series Cardinality", Type: params.TypeValue,
			ValueKind: params.KindInt, Min: 1, Max: 1e7, Default: params.Int(1000),
			Description: "distinct series preloaded before the run",
		},
		{
			Name: "points", Label: "Points per Series", Type: params.TypeValue,
			ValueKind: params.KindInt, Min: 0, Max: 1e6, Default: params.Int(32),
			Description: "samples preloaded into each series",
		},
		{
			Name: "threads", Label: "Client Threads", Type: params.TypeInterval,
			Min: 1, Max: 128, Default: params.Int(1),
			Description: "number of concurrent benchmark client threads",
		},
		{
			Name: "operations", Label: "Operation Count", Type: params.TypeValue,
			ValueKind: params.KindInt, Min: 1, Max: 1e9, Default: params.Int(20000),
			Description: "operations executed in the measured phase",
		},
		{
			Name: "mix", Label: "Append/Window Mix", Type: params.TypeRatio,
			RatioParts: []string{"append", "window"}, Default: params.Ratio(90, 10),
			Description: "proportion of sample appends to window queries",
		},
		{
			Name: "distribution", Label: "Series Distribution", Type: params.TypeValue,
			ValueKind:   params.KindString,
			Options:     []string{"zipfian", "uniform", "latest", "sequential"},
			Default:     params.String_("latest"),
			Description: "series selection distribution (latest skews to recently created series)",
		},
		{
			Name: "window", Label: "Window Span", Type: params.TypeValue,
			ValueKind: params.KindInt, Min: 1, Max: 1e6, Default: params.Int(128),
			Description: "query window span in logical ticks",
		},
		{
			Name: "schedule", Label: "Dynamic Schedule", Type: params.TypeValue,
			ValueKind: params.KindString, Default: params.String_(""),
			Description: "phase DSL for dynamic workloads (phase=...,ops=...,mix=op:w+...,dist=...,rate=shape:start:end,grow=1;...); empty runs the static mix",
		},
	}
	diagrams := []core.DiagramSpec{
		{Type: "line", Title: "Throughput vs Cardinality", Metric: "throughput",
			XParam: "series", SeriesParam: "threads"},
		{Type: "bar", Title: "p95 Latency", Metric: "latency_p95_us",
			XParam: "threads", SeriesParam: "series"},
		{Type: "pie", Title: "Operation Mix", Metric: "operations"},
	}
	return defs, diagrams
}

// Runner executes one benchmark job against a fresh tssim instance.
type Runner struct {
	// EngineOptions tunes the simulated store; Seed is overridden per
	// job for reproducibility when left zero.
	EngineOptions tssim.Options

	db      *tssim.DB
	cfg     workload.Config
	sched   workload.Schedule
	threads int
	window  int64
	clock   atomic.Int64
	meas    metrics.Measurements
	phases  []workload.PhaseMeasurement
}

var _ agent.Runner = (*Runner)(nil)

// NewFactory returns an agent.Runner factory with shared engine options.
func NewFactory(opts tssim.Options) func() agent.Runner {
	return func() agent.Runner { return &Runner{EngineOptions: opts} }
}

// SeriesName maps a workload key index onto a series name. Indexes below
// the preloaded cardinality address existing series; the generator's
// partitioned insert keyspace yields fresh indexes — and therefore fresh
// series — for cardinality growth.
func SeriesName(i int64) string { return workload.PaddedKey("sensor", i, 9) }

// configFromParams derives the workload configuration and schedule from
// job params; the series cardinality doubles as the workload's record
// count so choosers address the preloaded series.
func configFromParams(a params.Assignment) (workload.Config, workload.Schedule, int, int64, int64, error) {
	fail := func(err error) (workload.Config, workload.Schedule, int, int64, int64, error) {
		return workload.Config{}, workload.Schedule{}, 0, 0, 0, err
	}
	threads := int(a.Int("threads", 1))
	if threads < 1 {
		return fail(fmt.Errorf("tsagent: %d threads", threads))
	}
	window := a.Int("window", 128)
	if window < 1 {
		return fail(fmt.Errorf("tsagent: window span %d", window))
	}
	points := a.Int("points", 32)
	if points < 0 {
		return fail(fmt.Errorf("tsagent: %d points per series", points))
	}
	appendPart, windowPart := 90, 10
	if mixVal, ok := a["mix"]; ok {
		if parts, ok := mixVal.AsRatio(); ok && len(parts) == 2 {
			appendPart, windowPart = parts[0], parts[1]
		}
	}
	cfg := workload.Config{
		Name:           "chronos-tsdemo",
		RecordCount:    a.Int("series", 1000),
		OperationCount: a.Int("operations", 20000),
		// append -> update, window -> read in the shared op vocabulary.
		Mix: workload.Mix{
			workload.OpUpdate: float64(appendPart),
			workload.OpRead:   float64(windowPart),
		},
		Distribution: a.String("distribution", "latest"),
		// Seed precedence matches mongoagent: explicit param, then
		// CHRONOS_SESSION_SEED, then the fixed default.
		Seed: a.Int("seed", workload.SeedFromEnv(42)),
	}
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return fail(err)
	}
	sched := cfg.Schedule()
	if spec := a.String("schedule", ""); spec != "" {
		phases, err := workload.ParseSchedulePhases(spec)
		if err != nil {
			return fail(err)
		}
		sched.Phases = phases
		sched = sched.WithDefaults()
		if err := sched.Validate(); err != nil {
			return fail(err)
		}
	}
	return cfg, sched, threads, window, points, nil
}

// Prepare opens the store and preloads the configured cardinality.
func (r *Runner) Prepare(rc *agent.RunContext) error {
	cfg, sched, threads, window, points, err := configFromParams(rc.Params())
	if err != nil {
		return err
	}
	r.cfg, r.sched, r.threads, r.window = cfg, sched, threads, window
	opts := r.EngineOptions
	if opts.Seed == 0 {
		opts.Seed = cfg.Seed
	}
	r.db = tssim.NewDB(opts)
	rc.Logf("prepare: series=%d points=%d chunk=%d", cfg.RecordCount, points, opts.ChunkPoints)
	LoadDB(r.db, &r.clock, cfg.RecordCount, points, 8)
	return rc.Err()
}

// WarmUp touches every preloaded series once so the catalogue and chunk
// metadata are resident.
func (r *Runner) WarmUp(rc *agent.RunContext) error {
	rc.Logf("warmup: scanning %d series", r.cfg.RecordCount)
	now := r.clock.Load()
	for i := int64(0); i < r.cfg.RecordCount; i++ {
		if i%1024 == 0 && rc.Err() != nil {
			return rc.Err()
		}
		r.db.Window(SeriesName(i), now-r.window, now)
	}
	return nil
}

// Execute runs the measured operation schedule.
func (r *Runner) Execute(rc *agent.RunContext) error {
	total, _ := r.sched.TotalOperations()
	rc.Logf("execute: phases=%d ops=%d threads=%d", len(r.sched.Phases), total, r.threads)
	for i, p := range r.sched.Phases {
		rc.Logf("  phase %d %q: mix=%s dist=%s", i, p.Name, p.Mix, p.Distribution)
	}
	sm, err := RunScheduleWorkload(r.db, &r.clock, r.window, r.sched, r.threads, func(done, total int64) {
		rc.SetProgress(done * 100 / total)
	}, rc.Err)
	if err != nil {
		return err
	}
	r.meas = sm.Total
	r.phases = sm.Phases
	return rc.Err()
}

// Analyze renders the result document Chronos Control visualises.
func (r *Runner) Analyze(rc *agent.RunContext) (map[string]any, error) {
	st := r.db.Stats()
	lat := r.meas.Latency
	rc.Logf("analyze: %.0f ops/s, p95=%.1fus, cardinality=%d", r.meas.Throughput, metrics.Micros(lat.P95), st.Series)
	result := map[string]any{
		"throughput":      r.meas.Throughput,
		"operations":      r.meas.Operations,
		"errors":          r.meas.Errors,
		"latency_mean_us": lat.Mean / 1000,
		"latency_p50_us":  metrics.Micros(lat.P50),
		"latency_p95_us":  metrics.Micros(lat.P95),
		"latency_p99_us":  metrics.Micros(lat.P99),
		"cardinality":     st.Series,
		"engineStats": map[string]any{
			"series":       st.Series,
			"points":       st.Points,
			"appends":      st.Appends,
			"outOfOrder":   st.OutOfOrder,
			"windows":      st.Windows,
			"windowPoints": st.WindowPoints,
			"chunksSealed": st.ChunksSealed,
		},
	}
	if len(r.phases) > 1 {
		result[core.PhaseResultsKey] = agent.PhaseResultsFrom(r.sched, r.phases)
	}
	csv := "operation,count,mean_ns,p50_ns,p95_ns,p99_ns\n"
	for _, name := range r.meas.SortedOperationNames() {
		s := r.meas.PerOperation[name]
		csv += fmt.Sprintf("%s,%d,%.0f,%d,%d,%d\n", name, s.Count, s.Mean, s.P50, s.P95, s.P99)
	}
	rc.AttachFile("latencies.csv", []byte(csv))
	return result, nil
}

// Clean releases the store.
func (r *Runner) Clean(rc *agent.RunContext) error {
	r.db = nil
	return nil
}

// LoadDB preloads series 0..series-1 with points samples each, advancing
// the shared logical clock. Exported for tests and examples that need a
// loaded store without the full agent workflow.
func LoadDB(db *tssim.DB, clock *atomic.Int64, series, points int64, loaders int) {
	if loaders < 1 {
		loaders = 1
	}
	var wg sync.WaitGroup
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := int64(l); i < series; i += int64(loaders) {
				name := SeriesName(i)
				for p := int64(0); p < points; p++ {
					ts := clock.Add(1)
					db.Append(name, ts, float64(ts%997))
				}
			}
		}(l)
	}
	wg.Wait()
	// Series exist even with zero preloaded points, so window queries
	// against the preloaded cardinality never miss.
	if points == 0 {
		for i := int64(0); i < series; i++ {
			db.Append(SeriesName(i), clock.Add(1), 0)
		}
	}
}

// RunScheduleWorkload drives a multi-phase schedule against the store and
// returns whole-run plus per-phase measurements. The shared clock orders
// appended samples across threads.
func RunScheduleWorkload(db *tssim.DB, clock *atomic.Int64, window int64, sched workload.Schedule, threads int, progress func(done, total int64), abortErr func() error) (workload.ScheduleMeasurements, error) {
	return workload.RunSchedule(sched, threads, func(op workload.Op) error {
		return applyOp(db, clock, window, op)
	}, progress, abortErr)
}

// applyOp maps one generated operation onto the time-series API.
func applyOp(db *tssim.DB, clock *atomic.Int64, window int64, op workload.Op) error {
	name := SeriesName(op.KeyIndex)
	switch op.Type {
	case workload.OpUpdate, workload.OpInsert:
		// update appends to an existing series; insert's partitioned key
		// index lands beyond the preload, creating a new series.
		ts := clock.Add(1)
		db.Append(name, ts, float64(ts%997))
		return nil
	case workload.OpRead:
		now := clock.Load()
		_, err := db.Window(name, now-window, now)
		return ignoreMissing(err)
	case workload.OpScan:
		// A scan walks a run of adjacent series in the catalogue and
		// windows each, like a multi-metric dashboard panel.
		now := clock.Load()
		for _, n := range db.SeriesNames(name, op.ScanLength) {
			if _, err := db.Window(n, now-window, now); err != nil {
				return err
			}
		}
		return nil
	case workload.OpReadModifyWrite:
		if _, err := db.Latest(name); err != nil && !errors.Is(err, tssim.ErrNoSeries) {
			return err
		}
		ts := clock.Add(1)
		db.Append(name, ts, float64(ts%997))
		return nil
	default:
		return fmt.Errorf("tsagent: unknown op %q", op.Type)
	}
}

// ignoreMissing drops no-such-series errors: under the latest
// distribution a chooser can race a series-creating insert, which the
// benchmark counts as a success-with-miss.
func ignoreMissing(err error) error {
	if errors.Is(err, tssim.ErrNoSeries) {
		return nil
	}
	return err
}
