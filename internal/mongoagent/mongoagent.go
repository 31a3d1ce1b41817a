// Package mongoagent is the evaluation client of the paper's
// demonstration: the MongoDB simulator's two storage engines (wiredTiger vs
// mmapv1) under YCSB-style workloads, the Go counterpart of the "MongoDB
// Chronos agent" published with the paper. It is one family of
// agent.SimRunner: the package supplies the family's parameters and its
// agent.SUT, which maps the generated operations onto the collection API:
//
//	read    -> FindOne; a missing key is a counted success
//	update  -> UpdateOne of one field; a missing key is a counted success
//	insert  -> ReplaceOne of a full record under a fresh key
//	scan    -> Scan of ScanLength documents from the key
//	rmw     -> FindOne followed by UpdateOne
//
// SystemDefinition declares the parameters. engine (wiredtiger | mmapv1)
// is the family's own; agent.SimRunner reads the rest as it does for every
// family, records sizing the data set and mix weighing read:update.
package mongoagent

import (
	"fmt"
	"sync"

	"chronos/internal/agent"
	"chronos/internal/core"
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

// NewFactory returns an agent.Runner factory whose simulators share
// opts; a zero opts.Seed is replaced per job by the job's workload seed.
func NewFactory(opts mongosim.Options) func() agent.Runner {
	f := agent.Family{
		Name:       SystemName,
		Definition: SystemDefinition,
		Workload:   "chronos-demo",
		Records:    "records",
		Mix:        [2]workload.OpType{workload.OpRead, workload.OpUpdate},
		Open: func(a params.Assignment) (agent.SUT, error) {
			return &sut{opts: opts, engine: a.String("engine", "")}, nil
		},
	}
	return func() agent.Runner { return &agent.SimRunner{Family: f} }
}

// sut is one simulator deployment serving one job.
type sut struct {
	opts   mongosim.Options
	engine string
	cfg    workload.Config
	server *mongosim.Server
	coll   *mongosim.Collection
}

// Load creates the simulator deployment and loads the records.
func (s *sut) Load(rc *agent.RunContext, cfg workload.Config) error {
	s.cfg = cfg
	opts := s.opts
	if opts.Seed == 0 {
		// Pin engine-internal randomness (skiplist tower heights) to the
		// same replayable seed as the workload stream.
		opts.Seed = cfg.Seed
	}
	srv, err := mongosim.NewServer(s.engine, opts)
	if err != nil {
		return err
	}
	s.server = srv
	s.coll = srv.Database("benchmark").Collection("usertable")
	rc.Logf("prepare: engine=%s records=%d", s.engine, cfg.RecordCount)

	// Parallel load: each loader owns a key stripe.
	return LoadCollection(s.coll, cfg, 8)
}

// WarmUp reads a sample of the table so caches are populated.
func (s *sut) WarmUp(rc *agent.RunContext) error {
	n := s.cfg.RecordCount/10 + 1
	rc.Logf("warmup: reading %d sample keys", n)
	sched := s.cfg.Schedule()
	sched.Phases[0].OperationCount = n
	gen, err := workload.NewScheduleGenerator(sched, 9999, 1)
	if err != nil {
		return err
	}
	for i := int64(0); i < n; i++ {
		if i%1024 == 0 && rc.Err() != nil {
			return rc.Err()
		}
		op, _ := gen.Next()
		s.coll.FindOne(op.Key())
	}
	return nil
}

// Stats reports the engine and its storage counters.
func (s *sut) Stats() (map[string]any, string) {
	st := s.coll.Stats()
	return map[string]any{
		"engine": st.Engine,
		"engineStats": map[string]any{
			"documents":        st.Documents,
			"compressionRatio": st.CompressionRatio(),
			"cacheHits":        st.CacheHits,
			"cacheMisses":      st.CacheMisses,
			"moves":            st.Moves,
			"checkpoints":      st.Checkpoints,
		},
	}, ""
}

// Close shuts the simulator down.
func (s *sut) Close() error {
	if s.server != nil {
		return s.server.Close()
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
			gen, err := workload.NewScheduleGenerator(cfg.Schedule(), 10000+l, 1)
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

// RunScheduleWorkload drives a multi-phase schedule against the
// collection with the given number of client threads and returns
// whole-run plus per-phase measurements. progress (may be nil) receives
// (done, total) counts of completed operations; abortErr (may be nil) is
// polled between batches and stops workers when non-nil.
func RunScheduleWorkload(coll *mongosim.Collection, sched workload.Schedule, threads int, progress func(done, total int64), abortErr func() error) (workload.ScheduleMeasurements, error) {
	return workload.RunSchedule(sched, threads, (&sut{coll: coll}).Apply, progress, abortErr)
}

// Apply maps one generated operation onto the collection API.
func (s *sut) Apply(op workload.Op) error {
	key := op.Key()
	switch op.Type {
	case workload.OpRead:
		_, err := s.coll.FindOne(key)
		return ignoreMissing(err)
	case workload.OpUpdate:
		return ignoreMissing(s.coll.UpdateOne(key, patchDoc(op.Fields)))
	case workload.OpInsert:
		return s.coll.ReplaceOne(recordToDoc(key, op.Fields))
	case workload.OpScan:
		_, err := s.coll.Scan(key, op.ScanLength)
		return err
	case workload.OpReadModifyWrite:
		if _, err := s.coll.FindOne(key); err != nil {
			return ignoreMissing(err)
		}
		return ignoreMissing(s.coll.UpdateOne(key, patchDoc(op.Fields)))
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
