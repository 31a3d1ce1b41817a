// Package mongoagent implements the evaluation client of the paper's
// demonstration: a Chronos agent runner that benchmarks the MongoDB
// simulator's two storage engines (wiredTiger vs mmapv1) under YCSB-style
// workloads. It is the Go counterpart of the "MongoDB Chronos agent"
// published with the paper.
//
// The runner understands the parameters declared by SystemDefinition:
//
//	engine        value(string): wiredtiger | mmapv1
//	threads       interval: number of client threads
//	records       value(int): table size loaded in the prepare phase
//	operations    value(int): operations executed in the execute phase
//	mix           ratio: read:update proportions
//	distribution  value(string): zipfian | uniform | latest | sequential
package mongoagent

import (
	"fmt"
	"sync"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/mongosim"
	"chronos/internal/params"
	"chronos/internal/workload"
)

// SystemName is the SuE name registered in Chronos Control.
const SystemName = "mongodb-sim"

// SystemDefinition returns the parameter definitions and result diagrams
// used to register the MongoDB SuE in Chronos Control (paper Fig. 2).
func SystemDefinition() ([]params.Definition, []core.DiagramSpec) {
	defs := []params.Definition{
		{
			Name: "engine", Label: "Storage Engine", Type: params.TypeValue,
			ValueKind:   params.KindString,
			Options:     []string{mongosim.EngineWiredTiger, mongosim.EngineMMAPv1},
			Default:     params.String_(mongosim.EngineWiredTiger),
			Description: "MongoDB storage engine under evaluation",
		},
		{
			Name: "threads", Label: "Client Threads", Type: params.TypeInterval,
			Min: 1, Max: 128, Default: params.Int(1),
			Description: "number of concurrent benchmark client threads",
		},
		{
			Name: "records", Label: "Record Count", Type: params.TypeValue,
			ValueKind: params.KindInt, Min: 1, Max: 1e8, Default: params.Int(10000),
			Description: "records loaded before the run",
		},
		{
			Name: "operations", Label: "Operation Count", Type: params.TypeValue,
			ValueKind: params.KindInt, Min: 1, Max: 1e9, Default: params.Int(20000),
			Description: "operations executed in the measured phase",
		},
		{
			Name: "mix", Label: "Read/Update Mix", Type: params.TypeRatio,
			RatioParts: []string{"read", "update"}, Default: params.Ratio(50, 50),
			Description: "proportion of reads to updates",
		},
		{
			Name: "distribution", Label: "Request Distribution", Type: params.TypeValue,
			ValueKind:   params.KindString,
			Options:     []string{"zipfian", "uniform", "latest", "sequential"},
			Default:     params.String_("zipfian"),
			Description: "key access distribution",
		},
		{
			Name: "schedule", Label: "Dynamic Schedule", Type: params.TypeValue,
			ValueKind: params.KindString, Default: params.String_(""),
			Description: "phase DSL for dynamic workloads (phase=...,ops=...,mix=op:w+...,dist=...,rate=shape:start:end,grow=1;...); empty runs the static mix",
		},
	}
	diagrams := []core.DiagramSpec{
		{Type: "line", Title: "Throughput vs Threads", Metric: "throughput",
			XParam: "threads", SeriesParam: "engine"},
		{Type: "bar", Title: "p95 Latency", Metric: "latency_p95_us",
			XParam: "threads", SeriesParam: "engine"},
		{Type: "pie", Title: "Operation Mix", Metric: "operations"},
	}
	return defs, diagrams
}

// Runner executes one benchmark job against a fresh simulator instance.
type Runner struct {
	// EngineOptions tunes the simulated engines (I/O latency, cache,
	// compression); Seed is overridden per job for reproducibility.
	EngineOptions mongosim.Options

	server  *mongosim.Server
	coll    *mongosim.Collection
	cfg     workload.Config
	sched   workload.Schedule
	threads int
	meas    metrics.Measurements
	phases  []workload.PhaseMeasurement
}

var _ agent.Runner = (*Runner)(nil)

// NewFactory returns an agent.Runner factory with shared engine options.
func NewFactory(opts mongosim.Options) func() agent.Runner {
	return func() agent.Runner { return &Runner{EngineOptions: opts} }
}

// configFromParams derives the workload configuration and schedule from
// job params. With no "schedule" parameter the schedule is the config's
// one-phase degenerate case; a non-empty schedule DSL replaces the phase
// list while keeping the config's table shape and seed.
func configFromParams(a params.Assignment) (workload.Config, workload.Schedule, int, string, error) {
	fail := func(err error) (workload.Config, workload.Schedule, int, string, error) {
		return workload.Config{}, workload.Schedule{}, 0, "", err
	}
	engine := a.String("engine", mongosim.EngineWiredTiger)
	threads := int(a.Int("threads", 1))
	if threads < 1 {
		return fail(fmt.Errorf("mongoagent: %d threads", threads))
	}
	mixVal, ok := a["mix"]
	readPart, updatePart := 50, 50
	if ok {
		if parts, ok := mixVal.AsRatio(); ok && len(parts) == 2 {
			readPart, updatePart = parts[0], parts[1]
		}
	}
	cfg := workload.Config{
		Name:           "chronos-demo",
		RecordCount:    a.Int("records", 10000),
		OperationCount: a.Int("operations", 20000),
		Mix:            workload.MixFromRatio(readPart, updatePart),
		Distribution:   a.String("distribution", "zipfian"),
		// Seed precedence: explicit job parameter, then
		// CHRONOS_SESSION_SEED (so harness replays pin the workload
		// stream too), then the fixed default.
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
	return cfg, sched, threads, engine, nil
}

// Prepare creates the simulator deployment and loads the records
// (paper §1: "the generation of benchmark data and their ingestion").
func (r *Runner) Prepare(rc *agent.RunContext) error {
	cfg, sched, threads, engine, err := configFromParams(rc.Params())
	if err != nil {
		return err
	}
	r.cfg, r.sched, r.threads = cfg, sched, threads
	opts := r.EngineOptions
	if opts.Seed == 0 {
		// Pin engine-internal randomness (skiplist tower heights) to the
		// same replayable seed as the workload stream.
		opts.Seed = cfg.Seed
	}
	srv, err := mongosim.NewServer(engine, opts)
	if err != nil {
		return err
	}
	r.server = srv
	r.coll = srv.Database("benchmark").Collection("usertable")
	rc.Logf("prepare: engine=%s records=%d", engine, cfg.RecordCount)

	// Parallel load: each loader owns a key stripe.
	return LoadCollection(r.coll, cfg, 8)
}

// WarmUp reads a sample of the table so caches are populated.
func (r *Runner) WarmUp(rc *agent.RunContext) error {
	rc.Logf("warmup: reading %d sample keys", r.cfg.RecordCount/10+1)
	gen, err := workload.NewGenerator(r.cfg, 9999)
	if err != nil {
		return err
	}
	for i := int64(0); i < r.cfg.RecordCount/10+1; i++ {
		if i%1024 == 0 && rc.Err() != nil {
			return rc.Err()
		}
		op := gen.NextOp()
		r.coll.FindOne(op.Key)
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
	sm, err := RunScheduleWorkload(r.coll, r.sched, r.threads, func(done, total int64) {
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
	st := r.coll.Stats()
	lat := r.meas.Latency
	rc.Logf("analyze: %.0f ops/s, p95=%.1fus", r.meas.Throughput, metrics.Micros(lat.P95))
	result := map[string]any{
		"throughput":      r.meas.Throughput,
		"operations":      r.meas.Operations,
		"errors":          r.meas.Errors,
		"latency_mean_us": lat.Mean / 1000,
		"latency_p50_us":  metrics.Micros(lat.P50),
		"latency_p95_us":  metrics.Micros(lat.P95),
		"latency_p99_us":  metrics.Micros(lat.P99),
		"engine":          st.Engine,
		"engineStats": map[string]any{
			"documents":        st.Documents,
			"compressionRatio": st.CompressionRatio(),
			"cacheHits":        st.CacheHits,
			"cacheMisses":      st.CacheMisses,
			"moves":            st.Moves,
			"checkpoints":      st.Checkpoints,
		},
	}
	if len(r.phases) > 1 {
		result[core.PhaseResultsKey] = agent.PhaseResultsFrom(r.sched, r.phases)
	}
	// Per-operation latency CSV as auxiliary artefact.
	csv := "operation,count,mean_ns,p50_ns,p95_ns,p99_ns\n"
	for _, name := range r.meas.SortedOperationNames() {
		s := r.meas.PerOperation[name]
		csv += fmt.Sprintf("%s,%d,%.0f,%d,%d,%d\n", name, s.Count, s.Mean, s.P50, s.P95, s.P99)
	}
	rc.AttachFile("latencies.csv", []byte(csv))
	return result, nil
}

// Clean shuts the simulator down.
func (r *Runner) Clean(rc *agent.RunContext) error {
	if r.server != nil {
		return r.server.Close()
	}
	return nil
}

// LoadCollection bulk-loads cfg.RecordCount records with the given
// parallelism. Exported for benchmarks and examples that need a loaded
// collection without the full agent workflow.
func LoadCollection(coll *mongosim.Collection, cfg workload.Config, loaders int) error {
	if loaders < 1 {
		loaders = 1
	}
	var wg sync.WaitGroup
	errc := make(chan error, loaders)
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			gen, err := workload.NewGenerator(cfg, 10000+l)
			if err != nil {
				errc <- err
				return
			}
			for i := int64(l); i < cfg.RecordCount; i += int64(loaders) {
				doc := recordToDoc(workload.Key(i), gen.Record())
				if err := coll.ReplaceOne(doc); err != nil {
					errc <- err
					return
				}
			}
		}(l)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// recordToDoc converts generated fields into a document keyed by key.
func recordToDoc(key string, fields []workload.Field) mongosim.Document {
	doc := patchDoc(fields)
	doc[mongosim.IDField] = key
	return doc
}

// patchDoc copies generated fields into a document: the payload is only
// lent for the length of the call, the simulator keeps what it is given.
func patchDoc(fields []workload.Field) mongosim.Document {
	doc := make(mongosim.Document, len(fields)+1)
	for _, f := range fields {
		doc[f.Name] = string(f.Value)
	}
	return doc
}

// RunWorkload executes the configured mix against the collection with the
// given number of client threads and returns the standard measurements.
// progress (may be nil) receives (done, total) counts of *completed*
// operations; abortErr (may be nil) is polled between batches and stops
// workers when non-nil. Exactly cfg.OperationCount operations execute:
// the remainder of an uneven split lands on the low worker indexes, and
// surplus workers stay idle when threads exceed the op count.
func RunWorkload(coll *mongosim.Collection, cfg workload.Config, threads int, progress func(done, total int64), abortErr func() error) (metrics.Measurements, error) {
	sm, err := RunScheduleWorkload(coll, cfg.Schedule(), threads, progress, abortErr)
	return sm.Total, err
}

// RunScheduleWorkload drives a multi-phase schedule against the
// collection and returns whole-run plus per-phase measurements.
func RunScheduleWorkload(coll *mongosim.Collection, sched workload.Schedule, threads int, progress func(done, total int64), abortErr func() error) (workload.ScheduleMeasurements, error) {
	return workload.RunSchedule(sched, threads, func(op workload.Op) error {
		return applyOp(coll, op)
	}, progress, abortErr)
}

// applyOp maps one generated operation onto the collection API.
func applyOp(coll *mongosim.Collection, op workload.Op) error {
	switch op.Type {
	case workload.OpRead:
		_, err := coll.FindOne(op.Key)
		return ignoreMissing(err)
	case workload.OpUpdate:
		return ignoreMissing(coll.UpdateOne(op.Key, patchDoc(op.Fields)))
	case workload.OpInsert:
		return coll.ReplaceOne(recordToDoc(op.Key, op.Fields))
	case workload.OpScan:
		_, err := coll.Scan(op.Key, op.ScanLength)
		return err
	case workload.OpReadModifyWrite:
		if _, err := coll.FindOne(op.Key); err != nil {
			return ignoreMissing(err)
		}
		return ignoreMissing(coll.UpdateOne(op.Key, patchDoc(op.Fields)))
	default:
		return fmt.Errorf("mongoagent: unknown op %q", op.Type)
	}
}

// ignoreMissing drops not-found errors: under the latest distribution a
// chooser can race an insert, which YCSB counts as a success-with-miss.
func ignoreMissing(err error) error {
	if err == mongosim.ErrNoDocument {
		return nil
	}
	return err
}
