package tsagent

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

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
	s.handles = LoadDB(db, &s.clock, 100, 4, 4)
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

// applyByName is the reference for Apply: the same mapping of an
// operation onto the store, through DB's by-name API only.
func applyByName(s *sut, op workload.Op) error {
	name := SeriesName(op.KeyIndex)
	switch op.Type {
	case workload.OpUpdate, workload.OpInsert:
		ts := s.clock.Add(1)
		s.db.Append(name, ts, float64(ts%997))
	case workload.OpRead:
		now := s.clock.Load()
		_, err := s.db.Window(name, now-s.window, now)
		return ignoreMissing(err)
	case workload.OpScan:
		now := s.clock.Load()
		for _, n := range s.db.SeriesNames(name, op.ScanLength) {
			if _, err := s.db.Window(n, now-s.window, now); err != nil {
				return err
			}
		}
	case workload.OpReadModifyWrite:
		if _, err := s.db.Latest(name); err != nil && !errors.Is(err, tssim.ErrNoSeries) {
			return err
		}
		ts := s.clock.Add(1)
		s.db.Append(name, ts, float64(ts%997))
	default:
		return fmt.Errorf("unknown op %q", op.Type)
	}
	return nil
}

// TestHandlesBuildTheByNameStore: one seeded single-thread stream of all
// five operation types, applied through Apply's preloaded handles and
// through the by-name reference, leaves two stores with equal counters
// and equal full-range windows for every series, grown ones included.
// Zipfian keys send most operations to the preloaded series, so the
// handles do most of the work, and their heads seal during the run.
func TestHandlesBuildTheByNameStore(t *testing.T) {
	const series, points, window, ops = 100, 200, 512, 6000
	sched := workload.Config{
		RecordCount: series, OperationCount: ops,
		Mix: workload.Mix{
			workload.OpUpdate: 1, workload.OpRead: 1, workload.OpInsert: 1,
			workload.OpScan: 1, workload.OpReadModifyWrite: 1,
		},
		Distribution: "zipfian", Seed: 13,
	}.WithDefaults().Schedule()
	run := func(apply func(workload.Op) error) (preloaded int) {
		sm, err := workload.RunSchedule(sched, 1, func(op workload.Op) error {
			if op.KeyIndex < series {
				preloaded++
			}
			return apply(op)
		}, nil, nil)
		if err != nil || sm.Total.Errors != 0 || len(sm.Total.PerOperation) != 5 {
			t.Fatalf("%v, %d errors, per-op = %v", err, sm.Total.Errors, sm.Total.PerOperation)
		}
		return preloaded
	}

	s := &sut{db: tssim.NewDB(tssim.Options{Seed: 5}), window: window}
	s.handles = LoadDB(s.db, &s.clock, series, points, 1)
	preloaded := run(s.Apply)

	ref := &sut{db: tssim.NewDB(tssim.Options{Seed: 5}), window: window}
	for i := int64(0); i < series; i++ {
		for p := 0; p < points; p++ {
			ts := ref.clock.Add(1)
			ref.db.Append(SeriesName(i), ts, float64(ts%997))
		}
	}
	run(func(op workload.Op) error { return applyByName(ref, op) })

	got, want := s.db.Stats(), ref.db.Stats()
	if got != want {
		t.Fatalf("stats through handles = %+v, by name = %+v", got, want)
	}
	if got.Series <= series || got.ChunksSealed == 0 || preloaded < ops/2 {
		t.Fatalf("the stream grew no series, sealed no head or went past the preload: %d of its operations addressed it, %+v", preloaded, got)
	}
	names := ref.db.SeriesNames("", want.Series)
	if gotNames := s.db.SeriesNames("", got.Series); !slices.Equal(gotNames, names) {
		t.Fatalf("series through handles = %v, by name = %v", gotNames, names)
	}
	end := ref.clock.Load()
	for _, n := range names {
		a, errA := s.db.Window(n, 0, end)
		b, errB := ref.db.Window(n, 0, end)
		if errA != nil || errB != nil || !slices.Equal(a, b) {
			t.Fatalf("series %s: through handles %v (%v), by name %v (%v)", n, a, errA, b, errB)
		}
	}
}

// TestPayloadsStayReadOnly is mongoagent's test of the same name for this
// family: the store takes no payload, and the adapter must leave the ones
// it is shown alone.
func TestPayloadsStayReadOnly(t *testing.T) {
	db := tssim.NewDB(tssim.Options{Seed: 5})
	s := &sut{db: db, window: 64}
	s.handles = LoadDB(db, &s.clock, 100, 4, 4)
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

// evalShape builds the store eval_heavy's time-series job runs against:
// 1,000 series of 32 points, built and named the way Load builds them,
// and window 128. A run of 10,000 appends drawn from the latest
// distribution follows, so a window over the newest span returns
// samples. It returns the sut with the chooser and source that drew the
// run, to draw more keys from.
func evalShape() (*sut, workload.KeyChooser, *rand.Rand) {
	s := &sut{db: tssim.NewDB(tssim.Options{Seed: 5}), window: 128, points: 32, series: 1000}
	s.handles = LoadDB(s.db, &s.clock, s.series, s.points, 8)
	keys, err := workload.NewChooser("latest", s.series)
	if err != nil {
		panic(err)
	}
	r := rand.New(rand.NewPCG(611, 0))
	for i := 0; i < 10_000; i++ {
		s.Apply(workload.Op{Type: workload.OpUpdate, KeyIndex: keys.Next(r)})
	}
	return s, keys, r
}

// TestApplyAllocs pins what the adapter allocates on eval_heavy's store.
// An append to a preloaded series allocates nothing once a run of them
// amortises head growth and chunk seals: the series' name comes from the
// table Load built. A window allocates at most twice the bytes it
// returns, because it copies only the head samples inside its span, not
// the whole head.
func TestApplyAllocs(t *testing.T) {
	s, keys, r := evalShape()
	update := workload.Op{Type: workload.OpUpdate}
	if a := testing.AllocsPerRun(50_000, func() {
		update.KeyIndex = keys.Next(r)
		if err := s.Apply(update); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Errorf("an append to a preloaded series allocates %v times, want 0", a)
	}

	// The windows a read Apply makes, kept to count what they return.
	const windows = 2000
	var before, after runtime.MemStats
	var returned uint64
	runtime.ReadMemStats(&before)
	for i := 0; i < windows; i++ {
		now := s.clock.Load()
		pts, err := s.db.Window(s.name(keys.Next(r)), now-s.window, now)
		if err != nil {
			t.Fatal(err)
		}
		returned += uint64(len(pts)) * uint64(unsafe.Sizeof(tssim.Point{}))
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d windows allocated %d bytes to return %d", windows, allocated, returned)
	if returned == 0 || allocated > 2*returned {
		t.Errorf("%d windows allocated %d bytes to return %d, want at most twice that", windows, allocated, returned)
	}
}

// BenchmarkApply is the adapter's cost per operation on eval_heavy's
// store (evalShape), keys drawn from the latest distribution, for its
// two operations: append (update) and window (read). parallel runs
// eval_heavy's 90:10 append:window mix from every goroutine
// b.RunParallel starts, each with its own chooser and source as each of
// the runner's threads has its own generator: at -cpu=2 its ns/op is
// wall time over both goroutines' operations.
func BenchmarkApply(b *testing.B) {
	for _, shape := range []struct {
		name string
		typ  workload.OpType
	}{{"append", workload.OpUpdate}, {"window", workload.OpRead}} {
		b.Run(shape.name, func(b *testing.B) {
			s, keys, r := evalShape()
			op := workload.Op{Type: shape.typ}
			b.ReportAllocs()
			for b.Loop() {
				op.KeyIndex = keys.Next(r)
				if err := s.Apply(op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("parallel", func(b *testing.B) {
		s, _, _ := evalShape()
		var streams atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			keys, err := workload.NewChooser("latest", s.series)
			if err != nil {
				b.Error(err)
				return
			}
			r := rand.New(rand.NewPCG(612, streams.Add(1)))
			var op workload.Op
			for pb.Next() {
				op.Type = workload.OpUpdate
				if r.IntN(10) == 0 {
					op.Type = workload.OpRead
				}
				op.KeyIndex = keys.Next(r)
				if err := s.Apply(op); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}

// BenchmarkJob is one eval_heavy time-series job's execute phase per
// iteration: 250,000 operations of the 90:10 append:window mix over keys
// from the latest distribution, on a freshly loaded store of 1,000 series
// of 32 points, driven through workload.RunSchedule with one thread per P
// as chronos-agent runs it. The store's loading is not timed. ns/op is
// the job's execute time; ns/job-op divides it by the job's operations,
// the sum of what the workload engine and the store cost one of them.
func BenchmarkJob(b *testing.B) {
	const ops = 250_000
	threads := runtime.GOMAXPROCS(0)
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := &sut{db: tssim.NewDB(tssim.Options{Seed: 5}), window: 128, points: 32, series: 1000}
		s.handles = LoadDB(s.db, &s.clock, s.series, s.points, 8)
		sched := workload.Config{
			RecordCount: s.series, OperationCount: ops,
			Mix:          workload.Mix{workload.OpUpdate: 90, workload.OpRead: 10},
			Distribution: "latest", Seed: int64(i + 1),
		}.WithDefaults().Schedule()
		start := time.Now()
		b.StartTimer()
		sm, err := workload.RunSchedule(sched, threads, s.Apply, nil, nil)
		b.StopTimer()
		elapsed += time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		if sm.Total.Operations != ops || sm.Total.Errors != 0 {
			b.Fatalf("job ran %d operations with %d errors, want %d and 0", sm.Total.Operations, sm.Total.Errors, ops)
		}
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N*ops), "ns/job-op")
}

func TestRunWorkloadExactCountAndUniqueSeries(t *testing.T) {
	// The remainder-distribution and partitioned-insert-keyspace
	// guarantees hold for this SUT family too: exactly OperationCount
	// ops, and every insert creates a distinct series.
	db := tssim.NewDB(tssim.Options{Seed: 5})
	s := &sut{db: db, window: 32}
	s.handles = LoadDB(db, &s.clock, 50, 2, 4)
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
