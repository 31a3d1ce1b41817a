package tsagent

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/internal/tssim"
	"chronos/internal/workload"
)

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
		"series":     params.Int(200),
		"points":     params.Int(8),
		"threads":    params.Int(4),
		"operations": params.Int(1000),
		"mix":        params.Ratio(80, 20),
		"window":     params.Int(64),
	}
	cfg, sched, threads, window, points, err := configFromParams(a)
	if err != nil {
		t.Fatal(err)
	}
	if threads != 4 || window != 64 || points != 8 || cfg.RecordCount != 200 {
		t.Fatalf("cfg=%+v threads=%d window=%d points=%d", cfg, threads, window, points)
	}
	if cfg.Mix[workload.OpUpdate] != 80 || cfg.Mix[workload.OpRead] != 20 {
		t.Fatalf("mix = %v", cfg.Mix)
	}
	if cfg.Distribution != "latest" {
		t.Fatalf("distribution = %s", cfg.Distribution)
	}
	if len(sched.Phases) != 1 || sched.Phases[0].OperationCount != 1000 {
		t.Fatalf("schedule = %+v", sched)
	}

	a["schedule"] = params.String_("phase=fill,ops=400,mix=insert:60+read:40,dist=latest,grow=1;phase=query,ops=300,mix=read:80+scan:20,dist=zipfian")
	_, sched, _, _, _, err = configFromParams(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Phases) != 2 || sched.Phases[0].Name != "fill" || !sched.Phases[0].GrowDomain {
		t.Fatalf("schedule = %+v", sched)
	}

	a["schedule"] = params.String_("phase=broken,ops=ten")
	if _, _, _, _, _, err := configFromParams(a); err == nil {
		t.Fatal("malformed schedule accepted")
	}
}

func TestRunWorkloadAllOps(t *testing.T) {
	db := tssim.NewDB(tssim.Options{ChunkPoints: 32, Seed: 5})
	var clock atomic.Int64
	LoadDB(db, &clock, 100, 4, 4)
	if got := db.NumSeries(); got != 100 {
		t.Fatalf("preloaded %d series", got)
	}
	sched := workload.Config{
		RecordCount: 100, OperationCount: 2000,
		Mix: workload.Mix{
			workload.OpUpdate:          0.4,
			workload.OpRead:            0.3,
			workload.OpInsert:          0.1,
			workload.OpScan:            0.1,
			workload.OpReadModifyWrite: 0.1,
		},
		Distribution: "latest", Seed: 7,
	}.WithDefaults().Schedule()
	sm, err := RunScheduleWorkload(db, &clock, 64, sched, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Total.Operations != 2000 || sm.Total.Errors != 0 {
		t.Fatalf("total = %+v", sm.Total)
	}
	for _, op := range []string{"update", "read", "insert", "scan", "rmw"} {
		if sm.Total.PerOperation[op].Count == 0 {
			t.Fatalf("op %s never executed", op)
		}
	}
	// Inserts created new series: cardinality grew past the preload.
	st := db.Stats()
	if st.Series <= 100 {
		t.Fatalf("cardinality did not grow: %d", st.Series)
	}
	if st.Windows == 0 || st.Appends == 0 {
		t.Fatalf("counters did not move: %+v", st)
	}
}

// TestPayloadsStayReadOnly is mongoagent's test of the same name for this
// family: the store takes no payload, and the adapter must leave the ones
// it is shown alone.
func TestPayloadsStayReadOnly(t *testing.T) {
	db := tssim.NewDB(tssim.Options{ChunkPoints: 32, Seed: 5})
	var clock atomic.Int64
	LoadDB(db, &clock, 100, 4, 4)
	sched := workload.Config{
		RecordCount: 100, OperationCount: 4000,
		Mix: workload.Mix{
			workload.OpRead: 1, workload.OpUpdate: 1, workload.OpInsert: 1,
			workload.OpScan: 1, workload.OpReadModifyWrite: 1,
		},
		Distribution: "latest", Seed: 7,
	}.Schedule()
	var mu sync.Mutex
	var shown, copies [][]byte
	sm, err := workload.RunSchedule(sched, 2, func(op workload.Op) error {
		mu.Lock()
		for _, f := range op.Fields {
			shown, copies = append(shown, f.Value), append(copies, bytes.Clone(f.Value))
		}
		mu.Unlock()
		return applyOp(db, &clock, 64, op)
	}, nil, nil)
	if err != nil || sm.Total.Errors != 0 || len(sm.Total.PerOperation) != 5 {
		t.Fatalf("%v, %d errors, per-op = %v", err, sm.Total.Errors, sm.Total.PerOperation)
	}
	if len(shown) < 4000 {
		t.Fatalf("the run showed the adapter only %d payload values", len(shown))
	}
	for i := range shown {
		if !bytes.Equal(shown[i], copies[i]) {
			t.Fatalf("payload value %d was written through", i)
		}
	}
}

// TestSeriesNameMatchesFmt: the hand-rolled formatting names the series
// fmt named, at the padding boundaries, below zero and past the pad width.
func TestSeriesNameMatchesFmt(t *testing.T) {
	for _, i := range []int64{
		0, 7, 999, 99_999_999, 999_999_999, 1_000_000_000, 1_000_000_000_000,
		-1, -99_999_999, -100_000_000, math.MaxInt64, math.MinInt64,
	} {
		if got, want := SeriesName(i), fmt.Sprintf("sensor%09d", i); got != want {
			t.Errorf("SeriesName(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestRunWorkloadExactCountAndUniqueSeries(t *testing.T) {
	// The remainder-distribution and partitioned-insert-keyspace
	// guarantees hold for this SUT family too: exactly OperationCount
	// ops, and every insert creates a distinct series.
	db := tssim.NewDB(tssim.Options{Seed: 5})
	var clock atomic.Int64
	LoadDB(db, &clock, 50, 2, 4)
	sched := workload.Config{
		RecordCount: 50, OperationCount: 1001,
		Mix:          workload.Mix{workload.OpInsert: 0.5, workload.OpRead: 0.5},
		Distribution: "latest", Seed: 3,
	}.WithDefaults().Schedule()
	sm, err := RunScheduleWorkload(db, &clock, 32, sched, 7, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Total.Operations != 1001 {
		t.Fatalf("operations = %d", sm.Total.Operations)
	}
	inserts := int64(sm.Total.PerOperation["insert"].Count)
	if inserts == 0 {
		t.Fatal("no inserts executed")
	}
	if got := int64(db.NumSeries()); got != 50+inserts {
		t.Fatalf("cardinality %d after %d inserts over 50 series (duplicate series keys)", got, inserts)
	}
}

func TestEndToEndThroughChronos(t *testing.T) {
	clock := metrics.NewManualClock(time.Unix(1e9, 0))
	svc, err := core.NewService(relstore.OpenMemory(), clock.Now)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := svc.CreateUser("demo", core.RoleAdmin)
	p, _ := svc.CreateProject("tsdb-demo", "", u.ID, nil)
	defs, diagrams := SystemDefinition()
	sys, err := svc.RegisterSystem(SystemName, "", defs, diagrams)
	if err != nil {
		t.Fatal(err)
	}
	dep, _ := svc.CreateDeployment(sys.ID, "sim-local", "inprocess", "1")
	exp, err := svc.CreateExperiment(p.ID, sys.ID, "cardinality", "", map[string][]params.Value{
		"series":     {params.Int(100), params.Int(400)},
		"points":     {params.Int(4)},
		"threads":    {params.Int(2)},
		"operations": {params.Int(800)},
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev, jobs, err := svc.CreateEvaluation(exp.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("jobs = %d", len(jobs))
	}

	a := &agent.Agent{
		Control:        &agent.LocalControl{Svc: svc},
		DeploymentID:   dep.ID,
		Factory:        NewFactory(tssim.Options{}),
		ReportInterval: 10 * time.Millisecond,
	}
	n, err := a.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("drained %d", n)
	}
	st, _ := svc.EvaluationStatusOf(ev.ID)
	if !st.Done() || st.Finished != 2 {
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
		// The store answers in well under a microsecond: whole
		// microseconds read its median latency as zero.
		p50, p95, p99 := doc["latency_p50_us"].(float64), doc["latency_p95_us"].(float64), doc["latency_p99_us"].(float64)
		if p50 <= 0 || p50 > p95 || p95 > p99 {
			t.Fatalf("job %s latency percentiles = %v / %v / %v us", j.ID, p50, p95, p99)
		}
		wantSeries := j.Params.Int("series", 0)
		if int64(doc["cardinality"].(float64)) < wantSeries {
			t.Fatalf("job %s cardinality = %v, want >= %d", j.ID, doc["cardinality"], wantSeries)
		}
		if len(res.Archive) == 0 {
			t.Fatalf("job %s missing archive", j.ID)
		}
	}
}
