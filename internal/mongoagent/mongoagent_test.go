package mongoagent

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/mongosim"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/internal/workload"
)

// fastOpts disables the simulated I/O wait so unit tests stay quick.
func fastOpts() mongosim.Options {
	return mongosim.Options{WriteLatency: mongosim.NoIO, Seed: 1}
}

func TestSystemDefinitionIsValid(t *testing.T) {
	defs, diagrams := SystemDefinition()
	for i := range defs {
		if err := defs[i].Check(); err != nil {
			t.Fatalf("definition %s: %v", defs[i].Name, err)
		}
	}
	if len(diagrams) != 3 {
		t.Fatalf("diagrams = %d", len(diagrams))
	}
	// The definitions must register cleanly in a real service.
	svc, err := core.NewService(relstore.OpenMemory(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterSystem(SystemName, "demo", defs, diagrams); err != nil {
		t.Fatal(err)
	}
}

func TestConfigFromParams(t *testing.T) {
	a := params.Assignment{
		"engine":       params.String_("mmapv1"),
		"threads":      params.Int(4),
		"records":      params.Int(500),
		"operations":   params.Int(1000),
		"mix":          params.Ratio(95, 5),
		"distribution": params.String_("uniform"),
	}
	cfg, sched, threads, engine, err := configFromParams(a)
	if err != nil {
		t.Fatal(err)
	}
	if engine != "mmapv1" || threads != 4 || cfg.RecordCount != 500 {
		t.Fatalf("cfg = %+v threads=%d engine=%s", cfg, threads, engine)
	}
	if cfg.Mix[workload.OpRead] != 95 || cfg.Mix[workload.OpUpdate] != 5 {
		t.Fatalf("mix = %v", cfg.Mix)
	}
	// Without a schedule param the schedule is the one-phase degenerate
	// case of the static config.
	if len(sched.Phases) != 1 || sched.Phases[0].OperationCount != 1000 {
		t.Fatalf("schedule = %+v", sched)
	}
	// Defaults.
	cfg, _, threads, engine, err = configFromParams(params.Assignment{})
	if err != nil {
		t.Fatal(err)
	}
	if engine != mongosim.EngineWiredTiger || threads != 1 || cfg.RecordCount != 10000 {
		t.Fatalf("defaults: %+v %d %s", cfg, threads, engine)
	}
	// Invalid thread count.
	if _, _, _, _, err := configFromParams(params.Assignment{"threads": params.Int(0)}); err == nil {
		t.Fatal("0 threads accepted")
	}
	// A schedule DSL replaces the phase list but keeps the table shape.
	a["schedule"] = params.String_("phase=warm,ops=400,mix=read:95+update:5;phase=churn,ops=600,mix=insert:50+read:50,dist=latest,grow=1")
	_, sched, _, _, err = configFromParams(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Phases) != 2 || sched.Phases[1].Name != "churn" || sched.RecordCount != 500 {
		t.Fatalf("schedule = %+v", sched)
	}
	// A malformed schedule fails the job up front, not mid-run.
	a["schedule"] = params.String_("phase=broken,ops=ten")
	if _, _, _, _, err := configFromParams(a); err == nil {
		t.Fatal("malformed schedule accepted")
	}
}

func TestRunWorkloadMeasures(t *testing.T) {
	srv, err := mongosim.NewServer(mongosim.EngineWiredTiger, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	coll := srv.Database("db").Collection("usertable")
	cfg := workload.Config{
		RecordCount: 1000, OperationCount: 4000,
		Mix:          workload.MixFromRatio(50, 50),
		Distribution: "zipfian", Seed: 3,
	}.WithDefaults()
	if err := LoadCollection(coll, cfg, 4); err != nil {
		t.Fatal(err)
	}
	if coll.Count() != 1000 {
		t.Fatalf("loaded %d", coll.Count())
	}
	var lastDone int64
	meas, err := RunWorkload(coll, cfg, 4, func(done, total int64) {
		if done < lastDone {
			t.Errorf("progress went backwards: %d -> %d", lastDone, done)
		}
		lastDone = done
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if meas.Operations < 3900 || meas.Operations > 4000 {
		t.Fatalf("operations = %d", meas.Operations)
	}
	if meas.Errors != 0 {
		t.Fatalf("errors = %d", meas.Errors)
	}
	if meas.Throughput <= 0 {
		t.Fatalf("throughput = %v", meas.Throughput)
	}
	if meas.Latency.Count == 0 || meas.Latency.P95 < meas.Latency.P50 {
		t.Fatalf("latency = %+v", meas.Latency)
	}
	if len(meas.PerOperation) != 2 {
		t.Fatalf("per-op = %v", meas.PerOperation)
	}
}

// TestRunWorkloadExactCount is the remainder-drop regression test: the
// old loop executed threads*(total/threads) ops, silently dropping the
// remainder, and over-ran to one op per thread when threads > total.
func TestRunWorkloadExactCount(t *testing.T) {
	srv, err := mongosim.NewServer(mongosim.EngineWiredTiger, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	coll := srv.Database("db").Collection("usertable")
	load := workload.Config{
		RecordCount: 200, OperationCount: 1,
		Mix: workload.MixFromRatio(100, 0), Distribution: "uniform", Seed: 3,
	}.WithDefaults()
	if err := LoadCollection(coll, load, 2); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ops     int64
		threads int
	}{
		{4001, 4}, // remainder 1 was dropped
		{1000, 7}, // remainder 6 was dropped
		{3, 8},    // over-ran to 8 ops
		{1, 16},   // over-ran to 16 ops
		{4000, 4}, // even split: unchanged
	}
	for _, tc := range cases {
		cfg := workload.Config{
			RecordCount: 200, OperationCount: tc.ops,
			Mix: workload.MixFromRatio(100, 0), Distribution: "uniform", Seed: 3,
		}.WithDefaults()
		meas, err := RunWorkload(coll, cfg, tc.threads, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if meas.Operations != tc.ops {
			t.Errorf("ops=%d threads=%d: executed %d", tc.ops, tc.threads, meas.Operations)
		}
	}
}

// TestConcurrentInsertKeysUnique is the duplicate-insert-key regression
// test: with the old per-worker generators every thread inserted the
// same key sequence, so concurrent ReplaceOne calls overwrote each other
// and the table grew by far fewer rows than the insert count.
func TestConcurrentInsertKeysUnique(t *testing.T) {
	srv, err := mongosim.NewServer(mongosim.EngineWiredTiger, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	coll := srv.Database("db").Collection("usertable")
	cfg := workload.Config{
		RecordCount: 100, OperationCount: 4000,
		Mix:          workload.Mix{workload.OpInsert: 0.5, workload.OpRead: 0.5},
		Distribution: "latest", Seed: 13,
	}.WithDefaults()
	if err := LoadCollection(coll, cfg, 2); err != nil {
		t.Fatal(err)
	}
	meas, err := RunWorkload(coll, cfg, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inserts := int64(meas.PerOperation["insert"].Count)
	if inserts == 0 {
		t.Fatal("no inserts executed")
	}
	// Every insert key was distinct, so every insert grew the table.
	want := cfg.RecordCount + inserts
	if got := int64(coll.Count()); got != want {
		t.Fatalf("table has %d rows after %d inserts over %d records, want %d (duplicate insert keys)",
			got, inserts, cfg.RecordCount, want)
	}
}

// TestRunWorkloadProgressNeverOvercounts is the abort-progress
// regression test: the old loop added a full batch to the progress
// counter before executing it, so an aborted run reported work that
// never happened.
func TestRunWorkloadProgressNeverOvercounts(t *testing.T) {
	srv, _ := mongosim.NewServer(mongosim.EngineWiredTiger, fastOpts())
	defer srv.Close()
	coll := srv.Database("db").Collection("usertable")
	cfg := workload.Config{
		RecordCount: 100, OperationCount: 1_000_000,
		Mix:          workload.MixFromRatio(100, 0),
		Distribution: "uniform", Seed: 3,
	}.WithDefaults()
	LoadCollection(coll, cfg, 2)
	var lastDone int64
	calls := 0
	abort := func() error {
		calls++
		if calls > 3 {
			return agent.ErrAborted
		}
		return nil
	}
	meas, err := RunWorkload(coll, cfg, 4, func(done, total int64) {
		lastDone = done
	}, abort)
	if err != nil {
		t.Fatal(err)
	}
	if meas.Operations >= cfg.OperationCount {
		t.Fatal("abort did not stop the run")
	}
	if lastDone > meas.Operations {
		t.Fatalf("progress reported %d ops but only %d executed", lastDone, meas.Operations)
	}
}

// TestScheduleEndToEnd drives a three-phase dynamic schedule through the
// public RunScheduleWorkload entry point and checks the per-phase slices.
func TestScheduleEndToEnd(t *testing.T) {
	srv, err := mongosim.NewServer(mongosim.EngineWiredTiger, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	coll := srv.Database("db").Collection("usertable")
	cfg := workload.Config{
		RecordCount: 300, OperationCount: 1,
		Mix: workload.MixFromRatio(100, 0), Distribution: "uniform", Seed: 11,
	}.WithDefaults()
	if err := LoadCollection(coll, cfg, 4); err != nil {
		t.Fatal(err)
	}
	phases, err := workload.ParseSchedulePhases(
		"phase=steady,ops=900,mix=read:95+update:5;" +
			"phase=shift,ops=600,mix=read:50+update:50,dist=uniform;" +
			"phase=surge,ops=500,mix=insert:40+read:60,dist=latest,grow=1")
	if err != nil {
		t.Fatal(err)
	}
	sched := cfg.Schedule()
	sched.Phases = phases
	sm, err := RunScheduleWorkload(coll, sched, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Total.Operations != 2000 || sm.Total.Errors != 0 {
		t.Fatalf("total = %+v", sm.Total)
	}
	if len(sm.Phases) != 3 {
		t.Fatalf("phases = %d", len(sm.Phases))
	}
	for i, want := range []int64{900, 600, 500} {
		if sm.Phases[i].Measurements.Operations != want {
			t.Fatalf("phase %d ops = %d", i, sm.Phases[i].Measurements.Operations)
		}
	}
	// The surge phase's inserts grew the table.
	if coll.Count() <= 300 {
		t.Fatalf("table did not grow: %d rows", coll.Count())
	}
}

func TestRunWorkloadAborts(t *testing.T) {
	srv, _ := mongosim.NewServer(mongosim.EngineWiredTiger, fastOpts())
	defer srv.Close()
	coll := srv.Database("db").Collection("usertable")
	cfg := workload.Config{
		RecordCount: 100, OperationCount: 1_000_000, // would take a while
		Mix:          workload.MixFromRatio(100, 0),
		Distribution: "uniform", Seed: 3,
	}.WithDefaults()
	LoadCollection(coll, cfg, 2)
	calls := 0
	abort := func() error {
		calls++
		if calls > 3 {
			return agent.ErrAborted
		}
		return nil
	}
	meas, err := RunWorkload(coll, cfg, 2, nil, abort)
	if err != nil {
		t.Fatal(err)
	}
	if meas.Operations >= cfg.OperationCount {
		t.Fatal("abort did not stop the run")
	}
}

func TestAllOpTypesApply(t *testing.T) {
	for _, engine := range mongosim.EngineNames() {
		srv, _ := mongosim.NewServer(engine, fastOpts())
		coll := srv.Database("db").Collection("usertable")
		cfg := workload.Config{
			RecordCount: 200, OperationCount: 2000,
			Mix: workload.Mix{
				workload.OpRead: 1, workload.OpUpdate: 1, workload.OpInsert: 1,
				workload.OpScan: 1, workload.OpReadModifyWrite: 1,
			},
			Distribution: "zipfian", Seed: 5,
		}.WithDefaults()
		if err := LoadCollection(coll, cfg, 2); err != nil {
			t.Fatal(err)
		}
		meas, err := RunWorkload(coll, cfg, 2, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if meas.Errors != 0 {
			t.Fatalf("%s: %d errors", engine, meas.Errors)
		}
		if len(meas.PerOperation) != 5 {
			t.Fatalf("%s: per-op = %v", engine, meas.PerOperation)
		}
		srv.Close()
	}
}

// TestPayloadsStayReadOnly: payload values alias the generator's pool, so
// an adapter or engine that wrote through one would corrupt every later
// value cut from the same bytes. Every value a run with all five operation
// types shows the simulator is kept — the slice itself beside a copy of its
// bytes at that moment — and compared after the run; a payload's capacity
// is clipped to its length, so these are all the pool bytes reachable
// through one. Run under -race, which also sees a late write from another
// goroutine.
func TestPayloadsStayReadOnly(t *testing.T) {
	for _, engine := range mongosim.EngineNames() {
		srv, _ := mongosim.NewServer(engine, fastOpts())
		coll := srv.Database("db").Collection("usertable")
		cfg := workload.Config{
			RecordCount: 200, OperationCount: 4000,
			Mix: workload.Mix{
				workload.OpRead: 1, workload.OpUpdate: 1, workload.OpInsert: 1,
				workload.OpScan: 1, workload.OpReadModifyWrite: 1,
			},
			Distribution: "zipfian", Seed: 5,
		}.WithDefaults()
		if err := LoadCollection(coll, cfg, 2); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var shown, copies [][]byte
		sm, err := workload.RunSchedule(cfg.Schedule(), 2, func(op workload.Op) error {
			mu.Lock()
			for _, f := range op.Fields {
				shown, copies = append(shown, f.Value), append(copies, bytes.Clone(f.Value))
			}
			mu.Unlock()
			return applyOp(coll, op)
		}, nil, nil)
		if err != nil || sm.Total.Errors != 0 || len(sm.Total.PerOperation) != 5 {
			t.Fatalf("%s: %v, %d errors, per-op = %v", engine, err, sm.Total.Errors, sm.Total.PerOperation)
		}
		if len(shown) < 4000 {
			t.Fatalf("%s: the run showed the simulator only %d payload values", engine, len(shown))
		}
		for i := range shown {
			if !bytes.Equal(shown[i], copies[i]) {
				t.Fatalf("%s: payload value %d was written through", engine, i)
			}
		}
		srv.Close()
	}
}

// TestLoadedDataCompressesAsBefore: the simulator under evaluation must
// see the same kind of data whatever the generator does to produce it
// cheaply. The wiredTiger engine stored the benchmark's 5000-record
// collection at 2.262 times compression when every value was drawn byte by
// byte; values cut from a pool read 2.258.
func TestLoadedDataCompressesAsBefore(t *testing.T) {
	srv, err := mongosim.NewServer(mongosim.EngineWiredTiger, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	coll := srv.Database("db").Collection("usertable")
	cfg := workload.Config{
		RecordCount: 5000, OperationCount: 1,
		Mix: workload.MixFromRatio(50, 50), Distribution: "zipfian", Seed: 42,
	}.WithDefaults()
	if err := LoadCollection(coll, cfg, 8); err != nil {
		t.Fatal(err)
	}
	if ratio := coll.Stats().CompressionRatio(); math.Abs(ratio-2.26) > 0.05 {
		t.Fatalf("compression ratio of the loaded collection = %.3f, want 2.26 ± 0.05", ratio)
	}
}

// TestEndToEndThroughChronos runs the complete paper demo in miniature:
// register the system, define the engine x threads experiment, run the
// evaluation through a real agent, and check the results look sane.
func TestEndToEndThroughChronos(t *testing.T) {
	clock := metrics.NewManualClock(time.Unix(1e9, 0))
	svc, err := core.NewService(relstore.OpenMemory(), clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := svc.CreateUser("demo", core.RoleAdmin)
	p, _ := svc.CreateProject("mongodb-demo", "", u.ID, nil)
	defs, diagrams := SystemDefinition()
	sys, err := svc.RegisterSystem(SystemName, "", defs, diagrams)
	if err != nil {
		t.Fatal(err)
	}
	dep, _ := svc.CreateDeployment(sys.ID, "sim-local", "inprocess", "1")
	exp, err := svc.CreateExperiment(p.ID, sys.ID, "engines", "", map[string][]params.Value{
		"engine":     {params.String_("wiredtiger"), params.String_("mmapv1")},
		"threads":    {params.Int(1), params.Int(2)},
		"records":    {params.Int(300)},
		"operations": {params.Int(600)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev, jobs, err := svc.CreateEvaluation(exp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("jobs = %d", len(jobs))
	}

	a := &agent.Agent{
		Control:        &agent.LocalControl{Svc: svc},
		DeploymentID:   dep.ID,
		Factory:        NewFactory(fastOpts()),
		ReportInterval: 10 * time.Millisecond,
	}
	n, err := a.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("drained %d", n)
	}
	st, _ := svc.EvaluationStatusOf(ev.ID)
	if !st.Done() || st.Finished != 4 {
		t.Fatalf("status = %+v", st)
	}
	for _, j := range jobs {
		res, err := svc.GetJobResult(j.ID)
		if err != nil {
			t.Fatalf("job %s: %v", j.ID, err)
		}
		var doc map[string]any
		if err := json.Unmarshal(res.JSON, &doc); err != nil {
			t.Fatal(err)
		}
		if doc["throughput"].(float64) <= 0 {
			t.Fatalf("job %s throughput = %v", j.ID, doc["throughput"])
		}
		p50, p95, p99 := doc["latency_p50_us"].(float64), doc["latency_p95_us"].(float64), doc["latency_p99_us"].(float64)
		if p50 <= 0 || p50 > p95 || p95 > p99 {
			t.Fatalf("job %s latency percentiles = %v / %v / %v us", j.ID, p50, p95, p99)
		}
		wantEngine := j.Params.String("engine", "")
		if doc["engine"] != wantEngine {
			t.Fatalf("job %s engine = %v, want %s", j.ID, doc["engine"], wantEngine)
		}
		if len(res.Archive) == 0 {
			t.Fatalf("job %s missing archive", j.ID)
		}
	}
}
