// Package chronos holds the repository-level benchmark harness
// (deliverable d): one benchmark per paper figure, regenerating the
// series the paper's evaluation shows, plus ablation benches for the
// store's and scheduler's design choices.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Absolute numbers depend on the host (the substrate is a simulator, not
// the authors' testbed); the *shape* — who wins, by what factor, where
// the crossover falls — is asserted in internal/experiments' tests and
// reported here via b.ReportMetric.
package chronos

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chronos/internal/agent"
	"chronos/internal/core"
	"chronos/internal/experiments"
	"chronos/internal/metrics"
	"chronos/internal/mongoagent"
	"chronos/internal/mongosim"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/internal/rest"
	"chronos/internal/workload"
	"chronos/pkg/client"
)

// benchConfig sizes the per-figure benches: small enough to iterate,
// large enough that the comparative shapes are stable.
func benchConfig() experiments.Config {
	return experiments.Config{
		Records:    1000,
		Operations: 4000,
		Threads:    []int64{1, 8},
	}
}

// BenchmarkE1_Architecture reproduces Fig. 1: the full stack — control,
// REST, two SuEs, two agents — executing two evaluations concurrently.
func BenchmarkE1_Architecture(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.E1Architecture(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Data["doneA"] != true || rep.Data["doneB"] != true {
			b.Fatalf("incomplete: %v", rep.Data)
		}
	}
}

// BenchmarkE2_SystemRegistration reproduces Fig. 2: registering the SuE
// with all its parameter types and reading the configuration back.
func BenchmarkE2_SystemRegistration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E2SystemRegistration(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_ParamSpace reproduces Fig. 3a: expanding experiments into
// job sets of the expected cardinality.
func BenchmarkE3_ParamSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := experiments.E3ParamSpace()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Data["allMatch"] != true {
			b.Fatal("cardinality mismatch")
		}
	}
}

// BenchmarkE4_ParallelDeployments reproduces Fig. 3b: the wall-clock
// speedup from running one evaluation over four identical deployments.
func BenchmarkE4_ParallelDeployments(b *testing.B) {
	cfg := benchConfig()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.E4ParallelDeployments(cfg)
		if err != nil {
			b.Fatal(err)
		}
		speedup = rep.Data["speedup"].(float64)
	}
	b.ReportMetric(speedup, "speedup_x")
}

// BenchmarkE5_JobLifecycle reproduces Fig. 3c: the complete job state
// machine with progress, logs, timeline, abort and re-schedule.
func BenchmarkE5_JobLifecycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E5JobLifecycle(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6_EngineComparison reproduces the paper's demo (Fig. 3d):
// wiredTiger vs mmapv1 across thread counts. The reported metrics are
// the throughput ratio at the sweep's extremes on the write-heavy mix —
// the numbers the demo video shows diverging.
func BenchmarkE6_EngineComparison(b *testing.B) {
	cfg := benchConfig()
	var low, high float64
	for i := 0; i < b.N; i++ {
		_, res, err := experiments.E6EngineComparison(cfg)
		if err != nil {
			b.Fatal(err)
		}
		const mix = "write-heavy 50:50"
		wt, _ := res.Series(mix, "wiredtiger")
		mm, _ := res.Series(mix, "mmapv1")
		low = wt.Throughput[0] / mm.Throughput[0]
		high = wt.Throughput[len(wt.Throughput)-1] / mm.Throughput[len(mm.Throughput)-1]
	}
	b.ReportMetric(low, "wt/mmap_1thread")
	b.ReportMetric(high, "wt/mmap_8threads")
}

// BenchmarkE7_APIVersioning exercises both REST API versions end to end.
func BenchmarkE7_APIVersioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E7APIVersioning(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8_FailureRecovery reproduces the reliability requirement:
// scripted failures with auto-reschedule, heartbeat-loss recovery and
// archive export.
func BenchmarkE8_FailureRecovery(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.E8FailureRecovery(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Data["allFinished"] != true {
			b.Fatal("recovery incomplete")
		}
	}
}

// --- ablation benches ---

// engineThroughput measures ops/sec of a raw engine under a mix.
func engineThroughput(b *testing.B, engine string, opts mongosim.Options, mix workload.Mix, threads int) float64 {
	b.Helper()
	srv, err := mongosim.NewServer(engine, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	coll := srv.Database("bench").Collection("usertable")
	cfg := workload.Config{
		RecordCount:    1000,
		OperationCount: int64(b.N),
		Mix:            mix,
		Distribution:   "zipfian",
		Seed:           42,
	}.WithDefaults()
	if err := mongoagent.LoadCollection(coll, cfg, 8); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	sm, err := mongoagent.RunScheduleWorkload(coll, cfg.Schedule(), threads, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	return sm.Total.Throughput
}

// BenchmarkAblation_Compression isolates wiredTiger's block compression:
// identical CPU-bound update workloads with and without compression.
func BenchmarkAblation_Compression(b *testing.B) {
	mix := workload.Mix{workload.OpUpdate: 1}
	for _, enabled := range []bool{true, false} {
		name := "on"
		if !enabled {
			name = "off"
		}
		b.Run("compression="+name, func(b *testing.B) {
			opts := mongosim.Options{
				WriteLatency:       mongosim.NoIO, // isolate the CPU cost
				DisableCompression: !enabled,
				Seed:               1,
			}
			tput := engineThroughput(b, mongosim.EngineWiredTiger, opts, mix, 1)
			b.ReportMetric(tput, "ops/s")
		})
	}
}

// BenchmarkAblation_Padding isolates mmapv1's power-of-2 record padding:
// growing updates with padding (in-place) vs without (every growth
// relocates the record).
func BenchmarkAblation_Padding(b *testing.B) {
	for _, padded := range []bool{true, false} {
		name := "on"
		if !padded {
			name = "off"
		}
		b.Run("padding="+name, func(b *testing.B) {
			opts := mongosim.Options{
				WriteLatency:   mongosim.NoIO,
				DisablePadding: !padded,
				Seed:           1,
			}
			e, err := mongosim.New(mongosim.EngineMMAPv1, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			// Documents that grow by one byte per update, cycling at 64 KB
			// so the copy cost stays bounded for large b.N.
			doc := make([]byte, 40)
			e.Put("doc", doc)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(doc) >= 64<<10 {
					doc = doc[:40]
				}
				doc = append(doc, byte(i))
				e.Put("doc", doc)
			}
			b.StopTimer()
			b.ReportMetric(float64(e.Stats().Moves), "moves")
		})
	}
}

// BenchmarkAblation_Distribution shows how key skew changes the engine
// gap: zipfian hot keys serialise on wiredTiger's per-document locks,
// uniform spreads them.
func BenchmarkAblation_Distribution(b *testing.B) {
	mix := workload.Mix{workload.OpRead: 0.5, workload.OpUpdate: 0.5}
	for _, dist := range []string{"zipfian", "uniform"} {
		b.Run("dist="+dist, func(b *testing.B) {
			srv, err := mongosim.NewServer(mongosim.EngineWiredTiger, mongosim.Options{Seed: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			coll := srv.Database("bench").Collection("usertable")
			cfg := workload.Config{
				RecordCount:    1000,
				OperationCount: int64(b.N),
				Mix:            mix,
				Distribution:   dist,
				Seed:           42,
			}.WithDefaults()
			if err := mongoagent.LoadCollection(coll, cfg, 8); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			sm, err := mongoagent.RunScheduleWorkload(coll, cfg.Schedule(), 8, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(sm.Total.Throughput, "ops/s")
		})
	}
}

// BenchmarkRelstoreWAL compares the WAL flush policies: per-commit fsync
// vs batched.
func BenchmarkRelstoreWAL(b *testing.B) {
	for _, mode := range []struct {
		name string
		sync relstore.SyncMode
	}{
		{"sync=every-commit", relstore.SyncEveryCommit},
		{"sync=batched", relstore.SyncBatched},
	} {
		b.Run(mode.name, func(b *testing.B) {
			db, err := relstore.Open(b.TempDir(), &relstore.Options{Sync: mode.sync})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			schema := relstore.Schema{Name: "t", Key: "id", Columns: []relstore.Column{
				{Name: "id", Type: relstore.TString},
				{Name: "v", Type: relstore.TInt},
			}}
			if err := db.CreateTable(schema); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := db.Update(func(tx *relstore.Tx) error {
					return tx.Put("t", relstore.Row{"id": fmt.Sprintf("k%d", i%1000), "v": int64(i)})
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRelstoreWALGroupCommit measures durable write throughput
// under concurrency: with group commit, parallel committers share
// fsyncs, so ops/s should scale well past the serial per-commit-fsync
// figure from BenchmarkRelstoreWAL. The compaction=looping variants run
// the same writer load while snapshot cycles churn continuously over a
// preloaded 20k-row store: because compaction is a background cycle
// that marshals outside every lock (commits only ever wait on the O(1)
// segment rotation), the reported p50/p99 commit latency must stay in
// the same band as the compaction-free run — the stop-the-world
// snapshot this replaced serialised full-store JSON marshalling onto
// the commit path.
func BenchmarkRelstoreWALGroupCommit(b *testing.B) {
	for _, cfg := range []struct {
		name       string
		par        int
		compacting bool
	}{
		{"writers=1", 1, false},
		{"writers=4", 4, false},
		{"writers=16", 16, false},
		{"writers=4/compaction=looping", 4, true},
		{"writers=16/compaction=looping", 16, true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			benchGroupCommit(b, cfg.par, cfg.compacting)
		})
	}
}

// TestGroupCommitAllocs pins the allocation cost of a durable commit:
// writers=4 group commit stays at or below 16 allocs/op, half of what a
// commit cost when WAL frames carried JSON rows (32). Allocation counts
// do not depend on the host's speed, so the bound is exact.
func TestGroupCommitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a one-second benchmark; skipped in -short")
	}
	r := testing.Benchmark(func(b *testing.B) { benchGroupCommit(b, 4, false) })
	if got := r.AllocsPerOp(); got > 16 {
		t.Errorf("writers=4 group commit: %d allocs/op, want <= 16", got)
	}
}

// BenchmarkRelstoreWALGroupCommitMetrics is the instrumented twin of
// the writers=4 group-commit bench: the same load against a store whose
// commit path records into a live metrics registry.
func BenchmarkRelstoreWALGroupCommitMetrics(b *testing.B) {
	b.Run("writers=4", func(b *testing.B) {
		benchGroupCommitOpts(b, 4, false, &relstore.Options{Metrics: metrics.NewRegistry()})
	})
}

// benchGroupCommit is the body of one BenchmarkRelstoreWALGroupCommit
// configuration, shared with TestGroupCommitAllocs.
func benchGroupCommit(b *testing.B, par int, compacting bool) {
	benchGroupCommitOpts(b, par, compacting, nil)
}

// benchGroupCommitOpts additionally lets callers tune the store: the
// Metrics variant runs the same load with the commit path instrumented
// by a live registry.
func benchGroupCommitOpts(b *testing.B, par int, compacting bool, opts *relstore.Options) {
	db, err := relstore.Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	schema := relstore.Schema{Name: "t", Key: "id", Columns: []relstore.Column{
		{Name: "id", Type: relstore.TString},
		{Name: "v", Type: relstore.TInt},
	}}
	if err := db.CreateTable(schema); err != nil {
		b.Fatal(err)
	}
	if compacting {
		// Preload rows so every snapshot has real marshalling work,
		// then keep compaction cycles running back to back for the
		// duration of the measurement.
		err := db.Update(func(tx *relstore.Tx) error {
			for i := 0; i < 20000; i++ {
				if err := tx.Put("t", relstore.Row{"id": fmt.Sprintf("pre%06d", i), "v": int64(i)}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := db.Compact(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		defer func() { close(stop); <-done }()
	}
	// Exactly par writer goroutines (RunParallel would multiply
	// by GOMAXPROCS and skew the writers=1 serial baseline), each
	// recording per-commit latency for the percentile report.
	b.ResetTimer()
	var n int64
	var wg sync.WaitGroup
	lats := make([][]time.Duration, par)
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&n, 1)
				if i > int64(b.N) {
					return
				}
				start := time.Now()
				err := db.Update(func(tx *relstore.Tx) error {
					return tx.Put("t", relstore.Row{"id": fmt.Sprintf("k%d", i%1000), "v": i})
				})
				lats[w] = append(lats[w], time.Since(start))
				if err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	if len(all) > 0 {
		b.ReportMetric(float64(all[len(all)/2]), "p50-ns")
		b.ReportMetric(float64(all[len(all)*99/100]), "p99-ns")
	}
}

// BenchmarkRelstoreSelect isolates the relstore query planner: an
// indexed equality lookup, a full scan with a predicate, an indexed
// Limit(1) (the claim pattern), a two-index intersection, and a
// non-cloning Count — all over the same 10k-row table.
func BenchmarkRelstoreSelect(b *testing.B) {
	const n = 10000
	db := relstore.OpenMemory()
	schema := relstore.Schema{Name: "t", Key: "id", Columns: []relstore.Column{
		{Name: "id", Type: relstore.TString},
		{Name: "status", Type: relstore.TString, Indexed: true},
		{Name: "shard", Type: relstore.TString, Indexed: true},
		{Name: "v", Type: relstore.TInt},
	}}
	if err := db.CreateTable(schema); err != nil {
		b.Fatal(err)
	}
	err := db.Update(func(tx *relstore.Tx) error {
		for i := 0; i < n; i++ {
			status := "cold"
			if i%100 == 0 {
				status = "hot" // 1% selectivity
			}
			row := relstore.Row{
				"id":     fmt.Sprintf("r%06d", i),
				"status": status,
				"shard":  fmt.Sprintf("s%d", i%16),
				"v":      int64(i),
			}
			if err := tx.Put("t", row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	run := func(name string, fn func(tx *relstore.Tx) error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := db.View(fn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("indexed-eq", func(tx *relstore.Tx) error {
		rows, err := tx.Select("t", relstore.NewQuery().Eq("status", "hot"))
		if err == nil && len(rows) != n/100 {
			return fmt.Errorf("got %d rows", len(rows))
		}
		return err
	})
	run("full-scan", func(tx *relstore.Tx) error {
		var rows []relstore.Row
		err := tx.SelectFunc("t", relstore.NewQuery(), func(r relstore.Row) bool {
			if r["v"].(int64)%100 == 0 {
				rows = append(rows, r.Clone())
			}
			return true
		})
		if err == nil && len(rows) != n/100 {
			return fmt.Errorf("got %d rows", len(rows))
		}
		return err
	})
	run("indexed-limit1", func(tx *relstore.Tx) error {
		rows, err := tx.Select("t", relstore.NewQuery().Eq("status", "cold").Limit(1))
		if err == nil && len(rows) != 1 {
			return fmt.Errorf("got %d rows", len(rows))
		}
		return err
	})
	run("indexed-intersect", func(tx *relstore.Tx) error {
		_, err := tx.Select("t", relstore.NewQuery().Eq("status", "hot").Eq("shard", "s0"))
		return err
	})
	run("count-indexed", func(tx *relstore.Tx) error {
		c, err := tx.Count("t", relstore.NewQuery().Eq("status", "hot"))
		if err == nil && c != n/100 {
			return fmt.Errorf("count %d", c)
		}
		return err
	})
	// The watchdog's shape: an indexed equality drives (100 rows) and the
	// callback keeps the rows in range.
	run("range-intersect-eq", func(tx *relstore.Tx) error {
		var rows []relstore.Row
		err := tx.SelectFunc("t", relstore.NewQuery().Eq("status", "hot"), func(r relstore.Row) bool {
			if v := r["v"].(int64); v >= 5000 && v < 5200 {
				rows = append(rows, r.Clone())
			}
			return true
		})
		if err == nil && len(rows) != 2 {
			return fmt.Errorf("got %d rows", len(rows))
		}
		return err
	})
}

// BenchmarkSchedulerClaim measures the job claim path (the agent-facing
// hot endpoint) at several queue depths. ns/op is ns per claim; with
// the planner's Limit(1) indexed lookup it should stay near-flat as the
// queue deepens, where the old full-scan path grew linearly.
func BenchmarkSchedulerClaim(b *testing.B) {
	for _, depth := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			benchSchedulerClaim(b, depth)
		})
	}
}

// benchSchedulerClaim is the body of one BenchmarkSchedulerClaim depth.
func benchSchedulerClaim(b *testing.B, depth int) {
	svc, err := core.NewService(relstore.OpenMemory(), nil)
	if err != nil {
		b.Fatal(err)
	}
	u, _ := svc.CreateUser("bench", core.RoleAdmin)
	p, _ := svc.CreateProject("bench", "", u.ID, nil)
	defs := []params.Definition{
		{Name: "idx", Type: params.TypeInterval, Min: 1, Max: 100000, Default: params.Int(1)},
	}
	sys, _ := svc.RegisterSystem("sue", "", defs, nil)
	dep, _ := svc.CreateDeployment(sys.ID, "d", "", "")
	variants := make([]params.Value, depth)
	for i := range variants {
		variants[i] = params.Int(int64(i%100000) + 1)
	}
	refills := 0
	refill := func() {
		refills++
		exp, err := svc.CreateExperiment(p.ID, sys.ID, fmt.Sprintf("e%d", refills), "",
			map[string][]params.Value{"idx": variants}, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := svc.CreateEvaluation(exp.ID); err != nil {
			b.Fatal(err)
		}
	}
	refill()
	remaining := depth
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if remaining == 0 {
			b.StopTimer()
			refill()
			remaining = depth
			b.StartTimer()
		}
		_, ok, err := svc.ClaimJob(dep.ID)
		if err != nil || !ok {
			b.Fatalf("claim %d: %v %v", i, ok, err)
		}
		remaining--
	}
}

// BenchmarkCheckHeartbeats measures the watchdog at different running-job
// counts with a fixed number of stale agents (8). A sweep walks the
// status index's running list and compares each row's scalar heartbeat
// with the cutoff, so ns/op is a fixed part — failing and rescheduling
// the 8 stale jobs, ~0.2 ms — plus ~0.16 µs per running job: ~0.3 ms at
// 1k, ~1.8 ms at 10k on the 2-vCPU box. The scan decodes no job JSON;
// the seed path did, and read 8 ms and 101 ms here.
func BenchmarkCheckHeartbeats(b *testing.B) {
	const staleCount = 8
	for _, running := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("running=%d", running), func(b *testing.B) {
			base := time.Date(2026, 7, 29, 12, 0, 0, 0, time.UTC)
			now := base
			svc, err := core.NewService(relstore.OpenMemory(), func() time.Time { return now })
			if err != nil {
				b.Fatal(err)
			}
			svc.HeartbeatTimeout = time.Hour
			u, _ := svc.CreateUser("bench", core.RoleAdmin)
			p, _ := svc.CreateProject("bench", "", u.ID, nil)
			defs := []params.Definition{
				{Name: "idx", Type: params.TypeInterval, Min: 1, Max: 100000, Default: params.Int(1)},
			}
			sys, _ := svc.RegisterSystem("sue", "", defs, nil)
			dep, _ := svc.CreateDeployment(sys.ID, "d", "", "")
			// One modest experiment evaluated many times: the running pool
			// scales while per-job costs (e.g. failJob reading the
			// experiment's settings for the attempt budget) stay constant.
			const perEval = 100
			variants := make([]params.Value, perEval)
			for i := range variants {
				variants[i] = params.Int(int64(i) + 1)
			}
			// Huge attempt budget so staled jobs keep auto-rescheduling
			// across iterations instead of sticking in failed.
			exp, err := svc.CreateExperiment(p.ID, sys.ID, "e", "",
				map[string][]params.Value{"idx": variants}, 1<<30)
			if err != nil {
				b.Fatal(err)
			}
			for n := 0; n < running; n += perEval {
				if _, _, err := svc.CreateEvaluation(exp.ID); err != nil {
					b.Fatal(err)
				}
			}
			claim := func(n int) {
				for i := 0; i < n; i++ {
					if _, ok, err := svc.ClaimJob(dep.ID); err != nil || !ok {
						b.Fatalf("claim: %v %v", ok, err)
					}
				}
			}
			// staleCount agents last heartbeat two timeouts ago; the rest
			// are fresh.
			now = base.Add(-2 * svc.HeartbeatTimeout)
			claim(staleCount)
			now = base
			claim(running - staleCount)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				failed, err := svc.CheckHeartbeats()
				if err != nil || len(failed) != staleCount {
					b.Fatalf("failed %d jobs (%v), want %d", len(failed), err, staleCount)
				}
				b.StopTimer()
				// The stale jobs auto-rescheduled; re-claim them with a
				// long-gone heartbeat so the next sweep sees the same
				// workload.
				now = base.Add(-2 * svc.HeartbeatTimeout)
				claim(staleCount)
				now = base
				b.StartTimer()
			}
		})
	}
}

// BenchmarkAgentJobRoundTrip measures one complete job execution through
// an agent talking to a loopback Chronos Control over REST (claim ->
// phases -> result upload).
func BenchmarkAgentJobRoundTrip(b *testing.B) {
	svc, err := core.NewService(relstore.OpenMemory(), nil)
	if err != nil {
		b.Fatal(err)
	}
	server := rest.NewServer(svc)
	server.Logger = log.New(io.Discard, "", 0)
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()
	u, _ := svc.CreateUser("bench", core.RoleAdmin)
	p, _ := svc.CreateProject("bench", "", u.ID, nil)
	defs, diagrams := mongoagent.SystemDefinition()
	sys, _ := svc.RegisterSystem(mongoagent.SystemName, "", defs, diagrams)
	dep, _ := svc.CreateDeployment(sys.ID, "d", "", "")
	exp, err := svc.CreateExperiment(p.ID, sys.ID, "e", "",
		map[string][]params.Value{
			"records":    {params.Int(200)},
			"operations": {params.Int(400)},
		}, 0)
	if err != nil {
		b.Fatal(err)
	}
	a := &agent.Agent{
		Control:      client.NewClient(ts.URL, client.WithVersion("v2")),
		DeploymentID: dep.ID,
		Factory:      mongoagent.NewFactory(mongosim.Options{WriteLatency: mongosim.NoIO, Seed: 1}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := svc.CreateEvaluation(exp.ID); err != nil {
			b.Fatal(err)
		}
		worked, err := a.RunOnce(context.Background())
		if err != nil || !worked {
			b.Fatalf("round trip %d: %v %v", i, worked, err)
		}
	}
}
