package mongoagent

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"maps"
	"math"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/mongosim"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/internal/rest"
	"chronos/internal/workload"
	"chronos/pkg/client"
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

// phase renders what a test pins of one schedule phase.
func phase(name string, ops int64, mix workload.Mix, dist string) string {
	return fmt.Sprintf("%s ops=%d mix=%s dist=%s", name, ops, mix, dist)
}

// withDefaults returns a over the declared defaults, as the runner hands
// it to Open.
func withDefaults(a params.Assignment) params.Assignment {
	defs, _ := SystemDefinition()
	out := params.Assignment{}
	for _, d := range defs {
		out[d.Name] = d.Default
	}
	maps.Copy(out, a)
	return out
}

// TestConfigFromParams: the shared parser reads this family's parameter
// names over its declared defaults, and Open reads the engine.
func TestConfigFromParams(t *testing.T) {
	t.Setenv("CHRONOS_SESSION_SEED", "5")
	fam := NewFactory(fastOpts())().(*agent.SimRunner).Family
	cases := []struct {
		name    string
		params  params.Assignment
		fail    bool
		engine  string
		records int64
		threads int
		seed    int64
		phases  []string
	}{
		{name: "explicit", params: params.Assignment{
			"engine": params.String_(mongosim.EngineMMAPv1), "threads": params.Int(4), "records": params.Int(500),
			"operations": params.Int(1000), "mix": params.Ratio(95, 5), "distribution": params.String_("uniform"), "seed": params.Int(9),
		}, engine: mongosim.EngineMMAPv1, records: 500, threads: 4, seed: 9,
			phases: []string{phase("chronos-demo", 1000, workload.Mix{workload.OpRead: 95, workload.OpUpdate: 5}, "uniform")}},
		{name: "defaults", params: params.Assignment{}, engine: mongosim.EngineWiredTiger, records: 10000, threads: 1, seed: 5,
			phases: []string{phase("chronos-demo", 20000, workload.Mix{workload.OpRead: 50, workload.OpUpdate: 50}, "zipfian")}},
		{name: "zero threads", params: params.Assignment{"threads": params.Int(0)}, fail: true},
		// A schedule DSL replaces the phase list but keeps the table shape.
		{name: "schedule keeps the table shape", params: params.Assignment{
			"records":  params.Int(500),
			"schedule": params.String_("phase=warm,ops=400,mix=read:95+update:5;phase=churn,ops=600,mix=insert:50+read:50,dist=latest,grow=1"),
		}, engine: mongosim.EngineWiredTiger, records: 500, threads: 1, seed: 5, phases: []string{
			phase("warm", 400, workload.Mix{workload.OpRead: 95, workload.OpUpdate: 5}, "zipfian"),
			phase("churn", 600, workload.Mix{workload.OpInsert: 50, workload.OpRead: 50}, "latest"),
		}},
		// A malformed schedule fails the job up front, not mid-run.
		{name: "malformed schedule", params: params.Assignment{"schedule": params.String_("phase=broken,ops=ten")}, fail: true},
	}
	for _, tc := range cases {
		_, sched, threads, err := fam.Config(tc.params)
		var s agent.SUT
		if err == nil {
			s, err = fam.Open(withDefaults(tc.params))
		}
		if tc.fail {
			if err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		var phases []string
		for _, p := range sched.Phases {
			phases = append(phases, phase(p.Name, p.OperationCount, p.Mix, p.Distribution))
		}
		if engine := s.(*sut).engine; engine != tc.engine || sched.RecordCount != tc.records || threads != tc.threads ||
			sched.Seed != tc.seed || strings.Join(phases, "; ") != strings.Join(tc.phases, "; ") {
			t.Errorf("%s: engine=%s records=%d threads=%d seed=%d phases=%q, want %s %d %d %d %q", tc.name, engine,
				sched.RecordCount, threads, sched.Seed, phases, tc.engine, tc.records, tc.threads, tc.seed, tc.phases)
		}
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
	sm, err := RunScheduleWorkload(coll, cfg.Schedule(), 4, func(done, total int64) {
		if done < lastDone {
			t.Errorf("progress went backwards: %d -> %d", lastDone, done)
		}
		lastDone = done
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Total.Operations < 3900 || sm.Total.Operations > 4000 {
		t.Fatalf("operations = %d", sm.Total.Operations)
	}
	if sm.Total.Errors != 0 {
		t.Fatalf("errors = %d", sm.Total.Errors)
	}
	if sm.Total.Throughput <= 0 {
		t.Fatalf("throughput = %v", sm.Total.Throughput)
	}
	if sm.Total.Latency.Count == 0 || sm.Total.Latency.P95 < sm.Total.Latency.P50 {
		t.Fatalf("latency = %+v", sm.Total.Latency)
	}
	if len(sm.Total.PerOperation) != 2 {
		t.Fatalf("per-op = %v", sm.Total.PerOperation)
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
		sm, err := RunScheduleWorkload(coll, cfg.Schedule(), tc.threads, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sm.Total.Operations != tc.ops {
			t.Errorf("ops=%d threads=%d: executed %d", tc.ops, tc.threads, sm.Total.Operations)
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
	sm, err := RunScheduleWorkload(coll, cfg.Schedule(), 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inserts := int64(sm.Total.PerOperation["insert"].Count)
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
	var calls atomic.Int32 // every worker polls abort
	abort := func() error {
		if calls.Add(1) > 3 {
			return agent.ErrAborted
		}
		return nil
	}
	sm, err := RunScheduleWorkload(coll, cfg.Schedule(), 4, func(done, total int64) {
		lastDone = done
	}, abort)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Total.Operations >= cfg.OperationCount {
		t.Fatal("abort did not stop the run")
	}
	if lastDone > sm.Total.Operations {
		t.Fatalf("progress reported %d ops but only %d executed", lastDone, sm.Total.Operations)
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
	var calls atomic.Int32 // every worker polls abort
	abort := func() error {
		if calls.Add(1) > 3 {
			return agent.ErrAborted
		}
		return nil
	}
	sm, err := RunScheduleWorkload(coll, cfg.Schedule(), 2, nil, abort)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Total.Operations >= cfg.OperationCount {
		t.Fatal("abort did not stop the run")
	}
}

func TestAllOpTypesApply(t *testing.T) {
	for _, engine := range []string{mongosim.EngineWiredTiger, mongosim.EngineMMAPv1} {
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
		sm, err := RunScheduleWorkload(coll, cfg.Schedule(), 2, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if sm.Total.Errors != 0 {
			t.Fatalf("%s: %d errors", engine, sm.Total.Errors)
		}
		if len(sm.Total.PerOperation) != 5 {
			t.Fatalf("%s: per-op = %v", engine, sm.Total.PerOperation)
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
	for _, engine := range []string{mongosim.EngineWiredTiger, mongosim.EngineMMAPv1} {
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
			return (&sut{coll: coll}).Apply(op)
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

	server := rest.NewServer(svc)
	server.Logger = log.New(io.Discard, "", 0)
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()
	a := &agent.Agent{
		Control:        client.NewClient(ts.URL, client.WithVersion("v2")),
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

// BenchmarkJob is one eval_heavy MongoDB job per iteration: a wiredTiger
// collection without the simulated write wait loaded with 5,000 records
// by LoadCollection, then 25,000 operations of the 50:50 read:update mix
// over zipfian keys, driven through workload.RunSchedule with one thread
// per P as chronos-agent runs it. load-ms and exec-ms are the two phases'
// mean times; ns/op is their sum, building and closing the server
// untimed.
func BenchmarkJob(b *testing.B) {
	const records, ops = 5000, 25_000
	threads := runtime.GOMAXPROCS(0)
	var load, exec time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := mongosim.NewServer(mongosim.EngineWiredTiger, mongosim.Options{WriteLatency: mongosim.NoIO, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		coll := srv.Database("benchmark").Collection("usertable")
		cfg := workload.Config{
			RecordCount: records, OperationCount: ops,
			Mix: workload.MixFromRatio(50, 50), Distribution: "zipfian", Seed: int64(i + 1),
		}.WithDefaults()
		b.StartTimer()
		start := time.Now()
		if err := LoadCollection(coll, cfg, 8); err != nil {
			b.Fatal(err)
		}
		loaded := time.Now()
		sm, err := RunScheduleWorkload(coll, cfg.Schedule(), threads, nil, nil)
		b.StopTimer()
		load, exec = load+loaded.Sub(start), exec+time.Since(loaded)
		if err != nil {
			b.Fatal(err)
		}
		if sm.Total.Operations != ops || sm.Total.Errors != 0 {
			b.Fatalf("job ran %d operations with %d errors, want %d and 0", sm.Total.Operations, sm.Total.Errors, ops)
		}
		srv.Close()
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1000 / float64(b.N) }
	b.ReportMetric(ms(load), "load-ms")
	b.ReportMetric(ms(exec), "exec-ms")
}
