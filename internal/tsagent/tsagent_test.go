package tsagent

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
	"strings"
	"sync"
	"testing"
	"time"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/internal/rest"
	"chronos/internal/tssim"
	"chronos/internal/workload"
	"chronos/pkg/client"
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
// names over its declared defaults, series sizing the data set and mix
// weighing append:window, and Open reads window and points.
func TestConfigFromParams(t *testing.T) {
	t.Setenv("CHRONOS_SESSION_SEED", "5")
	fam := NewFactory(tssim.Options{})().(*agent.SimRunner).Family
	cases := []struct {
		name           string
		params         params.Assignment
		fail           bool
		window, points int64
		records        int64
		threads        int
		seed           int64
		phases         []string
	}{
		{name: "explicit", params: params.Assignment{
			"series": params.Int(200), "points": params.Int(8), "threads": params.Int(4), "operations": params.Int(1000),
			"mix": params.Ratio(80, 20), "window": params.Int(64), "seed": params.Int(9),
		}, window: 64, points: 8, records: 200, threads: 4, seed: 9,
			phases: []string{phase("chronos-tsdemo", 1000, workload.Mix{workload.OpUpdate: 80, workload.OpRead: 20}, "latest")}},
		{name: "defaults", params: params.Assignment{}, window: 128, points: 32, records: 1000, threads: 1, seed: 5,
			phases: []string{phase("chronos-tsdemo", 20000, workload.Mix{workload.OpUpdate: 90, workload.OpRead: 10}, "latest")}},
		{name: "schedule", params: params.Assignment{
			"schedule": params.String_("phase=fill,ops=400,mix=insert:60+read:40,dist=latest,grow=1;phase=query,ops=300,mix=read:80+scan:20,dist=zipfian"),
		}, window: 128, points: 32, records: 1000, threads: 1, seed: 5, phases: []string{
			phase("fill", 400, workload.Mix{workload.OpInsert: 60, workload.OpRead: 40}, "latest"),
			phase("query", 300, workload.Mix{workload.OpRead: 80, workload.OpScan: 20}, "zipfian"),
		}},
		{name: "malformed schedule", params: params.Assignment{"schedule": params.String_("phase=broken,ops=ten")}, fail: true},
		{name: "zero window", params: params.Assignment{"window": params.Int(0)}, fail: true},
		{name: "negative points", params: params.Assignment{"points": params.Int(-1)}, fail: true},
	}
	for _, tc := range cases {
		// The job fails up front, not mid-run: parsing or opening the SUT
		// refuses it.
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
		if st := s.(*sut); st.window != tc.window || st.points != tc.points || sched.RecordCount != tc.records ||
			threads != tc.threads || sched.Seed != tc.seed || strings.Join(phases, "; ") != strings.Join(tc.phases, "; ") {
			t.Errorf("%s: window=%d points=%d records=%d threads=%d seed=%d phases=%q, want %d %d %d %d %d %q", tc.name,
				st.window, st.points, sched.RecordCount, threads, sched.Seed, phases,
				tc.window, tc.points, tc.records, tc.threads, tc.seed, tc.phases)
		}
	}
	// A two-phase schedule keeps each phase's grow flag.
	_, sched, _, err := fam.Config(params.Assignment{"schedule": params.String_("phase=fill,ops=400,mix=insert:60+read:40,dist=latest,grow=1;phase=query,ops=300,mix=read:80+scan:20")})
	if err != nil || !sched.Phases[0].GrowDomain || sched.Phases[1].GrowDomain {
		t.Fatalf("schedule = %+v, %v", sched, err)
	}
}

func TestRunWorkloadAllOps(t *testing.T) {
	db := tssim.NewDB(tssim.Options{Seed: 5})
	s := &sut{db: db, window: 64}
	LoadDB(db, &s.clock, 100, 4, 4)
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
	sm, err := workload.RunSchedule(sched, 4, s.Apply, nil, nil)
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
	db := tssim.NewDB(tssim.Options{Seed: 5})
	s := &sut{db: db, window: 64}
	LoadDB(db, &s.clock, 100, 4, 4)
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
		return s.Apply(op)
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
	s := &sut{db: db, window: 32}
	LoadDB(db, &s.clock, 50, 2, 4)
	sched := workload.Config{
		RecordCount: 50, OperationCount: 1001,
		Mix:          workload.Mix{workload.OpInsert: 0.5, workload.OpRead: 0.5},
		Distribution: "latest", Seed: 3,
	}.WithDefaults().Schedule()
	sm, err := workload.RunSchedule(sched, 7, s.Apply, nil, nil)
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

	server := rest.NewServer(svc)
	server.Logger = log.New(io.Discard, "", 0)
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()
	a := &agent.Agent{
		Control:        client.NewClient(ts.URL, client.WithVersion("v2")),
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
		// The prepare line names the chunk size the store runs at.
		chunks, err := svc.JobLogs(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		var log strings.Builder
		for _, c := range chunks {
			log.WriteString(c.Text)
		}
		want := fmt.Sprintf("prepare: series=%d points=4 chunk=%d\n", wantSeries, tssim.DefaultChunkPoints)
		if !strings.Contains(log.String(), want) {
			t.Fatalf("job %s log has no %q:\n%s", j.ID, want, log.String())
		}
	}
}
