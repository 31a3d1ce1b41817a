//go:build linux

package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"chronos/internal/core"
	"chronos/internal/mongosim"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/internal/tssim"
	"chronos/internal/workload"
)

// The ladder runs one operation — claim one job, complete it — directly
// on each layer's public functions, one goroutine, n operations per
// rung, on a durable temporary store (compaction off, so no cycle lands
// in a rung) unless the rung says _mem. Adjacent rungs subtract to a
// layer's cost, which only works while the medians are monotone up the
// stack; the ladder checks that and reports a violation as a harness
// error.

// allocJobs is how many extra claims each rung makes in one batch to
// count allocations, apart from the timed ones.
const allocJobs = 100

// timeEach times fn(i) for i in [0,n) and returns the durations in µs.
func timeEach(n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, us(time.Since(t)))
	}
	return out, nil
}

// jobOps is the one operation of the ladder as a layer exposes it.
// progress and appendLog may be nil on rungs that time claim and
// complete only.
type jobOps struct {
	claim     func() (id string, err error)
	progress  func(id string) error
	appendLog func(id string) error
	complete  func(id string) error
}

type rungTimes struct {
	claim, progress, appendLog, complete []float64 // µs
}

// runRung takes n jobs through ops, timing each call.
func runRung(n int, ops jobOps) (rt rungTimes, err error) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		id, err := ops.claim()
		if err != nil {
			return rt, fmt.Errorf("claim %d: %w", i, err)
		}
		t1 := time.Now()
		rt.claim = append(rt.claim, us(t1.Sub(t0)))
		if ops.progress != nil {
			if err := ops.progress(id); err != nil {
				return rt, fmt.Errorf("progress %s: %w", id, err)
			}
			t2 := time.Now()
			if err := ops.appendLog(id); err != nil {
				return rt, fmt.Errorf("append log %s: %w", id, err)
			}
			t3 := time.Now()
			rt.progress, rt.appendLog = append(rt.progress, us(t2.Sub(t1))), append(rt.appendLog, us(t3.Sub(t2)))
			t1 = t3
		}
		if err := ops.complete(id); err != nil {
			return rt, fmt.Errorf("complete %s: %w", id, err)
		}
		rt.complete = append(rt.complete, us(time.Since(t1)))
	}
	return rt, nil
}

// claimAllocs counts the heap allocations, process-wide, of allocJobs
// claims made back to back, per claim. The ladder is single-goroutine,
// so the background allocations in that batch (the group committer, the
// HTTP server's goroutine on the loopback rung) are what the claims
// caused. The claimed jobs are completed afterwards, uncounted.
func claimAllocs(ops jobOps) (float64, error) {
	ids := make([]string, 0, allocJobs)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < allocJobs; i++ {
		id, err := ops.claim()
		if err != nil {
			return 0, fmt.Errorf("claim (alloc batch) %d: %w", i, err)
		}
		ids = append(ids, id)
	}
	runtime.ReadMemStats(&b)
	for _, id := range ids {
		if err := ops.complete(id); err != nil {
			return 0, err
		}
	}
	return float64(b.Mallocs-a.Mallocs) / allocJobs, nil
}

// seedCore creates the no-op system with evals evaluations of variants
// jobs directly on the service; it returns the deployment id, the
// evaluation ids and how long each CreateEvaluation took (µs).
func seedCore(svc *core.Service, seed int64, variants, evals int) (dep string, evalIDs []string, createUs []float64, err error) {
	u, err := svc.CreateUser("bench", core.RoleAdmin)
	if err != nil {
		return "", nil, nil, err
	}
	p, err := svc.CreateProject("bench", "", u.ID, nil)
	if err != nil {
		return "", nil, nil, err
	}
	sys, err := svc.RegisterSystem(sysNoop, "", systemDefs(sysNoop), nil)
	if err != nil {
		return "", nil, nil, err
	}
	d, err := svc.CreateDeployment(sys.ID, "bench", "sandbox", "")
	if err != nil {
		return "", nil, nil, err
	}
	exp, err := svc.CreateExperiment(p.ID, sys.ID, "sweep", "", map[string][]params.Value{
		"v": sweep(seed, variants), "seed": {params.Int(seed)},
	}, 1)
	if err != nil {
		return "", nil, nil, err
	}
	for i := 0; i < evals; i++ {
		t := time.Now()
		ev, _, err := svc.CreateEvaluation(exp.ID)
		if err != nil {
			return "", nil, nil, err
		}
		createUs = append(createUs, us(time.Since(t)))
		evalIDs = append(evalIDs, ev.ID)
	}
	return d.ID, evalIDs, createUs, nil
}

var (
	noopResult = []byte(`{"v":1}`)
	noopLog    = "noop job log line\n"
)

func coreOps(svc *core.Service, dep string, all bool) jobOps {
	ops := jobOps{
		claim: func() (string, error) {
			job, ok, err := svc.ClaimJob(dep)
			if err != nil || !ok {
				return "", fmt.Errorf("ok=%v: %v", ok, err)
			}
			return job.ID, nil
		},
		complete: func(id string) error { return svc.CompleteJob(id, noopResult, nil) },
	}
	if all {
		ops.progress = func(id string) error { _, err := svc.Progress(id, 0); return err }
		ops.appendLog = func(id string) error { return svc.AppendJobLog(id, noopLog) }
	}
	return ops
}

// restOps drives the REST handler in-process: no socket, no client.
func restOps(h http.Handler, dep string) jobOps {
	post := func(path, body string) (*httptest.ResponseRecorder, error) {
		req := httptest.NewRequest(http.MethodPost, "/api/v2"+path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code/100 != 2 {
			return nil, fmt.Errorf("POST %s: %d %s", path, rec.Code, rec.Body.String())
		}
		return rec, nil
	}
	claimBody := `{"deploymentId":"` + dep + `"}`
	completeBody := `{"resultJson":"eyJ2IjoxfQ=="}` // base64 of noopResult
	return jobOps{
		claim: func() (string, error) {
			rec, err := post("/jobs/claim", claimBody)
			if err != nil {
				return "", err
			}
			var env struct {
				Data struct {
					Job *struct {
						ID string `json:"id"`
					} `json:"job"`
				} `json:"data"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Data.Job == nil {
				return "", fmt.Errorf("claim answer %q: %v", rec.Body.String(), err)
			}
			return env.Data.Job.ID, nil
		},
		complete: func(id string) error { _, err := post("/jobs/"+id+"/complete", completeBody); return err },
	}
}

func (e *env) ladder(n int) (values, []string, error) {
	vals := values{}
	set := func(name string, xs []float64) { vals.set(name, median(xs), len(xs)) }
	noCompaction := &relstore.Options{CompactEvery: -1}
	evals := (n + allocJobs + 999) / 1000

	if err := e.relstoreRungs(n, vals); err != nil {
		return nil, nil, fmt.Errorf("relstore rungs: %w", err)
	}

	// core, durable: the four calls of one job, plus the evaluation-wide
	// operations on a 1000-job evaluation.
	st, err := e.openStack("ladder-core", noCompaction, nil)
	if err != nil {
		return nil, nil, err
	}
	dep, evalIDs, createUs, err := seedCore(st.svc, e.seed, 1000, evals+1)
	if err != nil {
		st.closer()
		return nil, nil, err
	}
	vals.set("core.create_evaluation_us_per_job", median(createUs)/1000, len(createUs))
	last := evalIDs[len(evalIDs)-1] // never claimed from: n+allocJobs jobs sit before it
	xs, err := timeEach(20, func(int) error {
		jobs, err := st.svc.ListJobs(last)
		if err == nil && len(jobs) != 1000 {
			err = fmt.Errorf("ListJobs returned %d rows", len(jobs))
		}
		return err
	})
	if err == nil {
		vals.set("core.list_jobs_us_per_row", median(xs)/1000, len(xs))
		xs, err = timeEach(50, func(int) error { _, err := st.svc.EvaluationStatusOf(last); return err })
	}
	if err != nil {
		st.closer()
		return nil, nil, err
	}
	set("core.evaluation_status_p50_us", xs)
	walBefore := st.db.Stats().WALSizeB
	rt, err := runRung(n, coreOps(st.svc, dep, true))
	walBytes := st.db.Stats().WALSizeB - walBefore
	var allocs float64
	if err == nil {
		allocs, err = claimAllocs(coreOps(st.svc, dep, false))
	}
	st.closer()
	if err != nil {
		return nil, nil, fmt.Errorf("core rung: %w", err)
	}
	set("core.claim_p50_us", rt.claim)
	set("core.progress_p50_us", rt.progress)
	set("core.appendlog_p50_us", rt.appendLog)
	set("core.complete_p50_us", rt.complete)
	vals.set("core.claim_allocs", allocs, allocJobs)
	vals.set("relstore.wal.bytes_per_job", float64(walBytes)/float64(n), n)

	// core on an in-memory store: the same code without the WAL.
	mem := relstore.OpenMemory()
	msvc, err := core.NewService(mem, nil)
	if err != nil {
		return nil, nil, err
	}
	mdep, _, _, err := seedCore(msvc, e.seed, 1000, evals)
	if err == nil {
		rt, err = runRung(n, coreOps(msvc, mdep, false))
	}
	mem.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("core mem rung: %w", err)
	}
	set("core.claim_mem_p50_us", rt.claim)
	set("core.complete_mem_p50_us", rt.complete)

	// rest: the handler in-process, on a durable store.
	rt, allocs, err = e.stackRung("ladder-rest", n, func(st *stack, dep string) jobOps {
		return restOps(st.rest.Handler(), dep)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("rest rung: %w", err)
	}
	set("rest.claim_inproc_p50_us", rt.claim)
	set("rest.complete_inproc_p50_us", rt.complete)
	vals.set("rest.claim_allocs", allocs, allocJobs)
	vals.set("rest.claim_self_us", vals["rest.claim_inproc_p50_us"].V-vals["core.claim_p50_us"].V, n)

	// client: pkg/client over loopback HTTP to the same handler.
	rt, allocs, err = e.stackRung("ladder-client", n, func(st *stack, dep string) jobOps {
		c := newClient(st.url)
		return jobOps{
			claim: func() (string, error) {
				job, _, err := c.ClaimJob(dep)
				if err != nil || job == nil {
					return "", fmt.Errorf("job=%v: %v", job, err)
				}
				return job.ID, nil
			},
			progress:  func(id string) error { _, err := c.Progress(id, 0); return err },
			appendLog: func(id string) error { return c.AppendLog(id, noopLog) },
			complete:  func(id string) error { return c.Complete(id, noopResult, nil) },
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("client rung: %w", err)
	}
	set("client.claim_p50_us", rt.claim)
	set("client.progress_p50_us", rt.progress)
	set("client.appendlog_p50_us", rt.appendLog)
	set("client.complete_p50_us", rt.complete)
	// What the SDK and net/http add on both ends of the socket: the
	// loopback claim's allocations less the handler's own.
	vals.set("client.claim_allocs", allocs-vals["rest.claim_allocs"].V, allocJobs)

	if err := engineRungs(e.seed, n, vals); err != nil {
		return nil, nil, fmt.Errorf("engine rungs: %w", err)
	}

	order := []string{"relstore.wal.commit_p50_us", "core.claim_p50_us", "rest.claim_inproc_p50_us", "client.claim_p50_us"}
	note := fmt.Sprintf("ladder (%d ops per rung) is monotone: wal.commit <= core.claim <= rest.claim_inproc <= client.claim", n)
	for i := 1; i < len(order); i++ {
		if vals[order[i-1]].V > vals[order[i]].V {
			note = fmt.Sprintf("HARNESS ERROR: ladder not monotone: %s = %.1f us > %s = %.1f us; per-layer costs from subtraction are unreliable in this run",
				order[i-1], vals[order[i-1]].V, order[i], vals[order[i]].V)
			break
		}
	}
	return vals, []string{note}, nil
}

// stackRung opens a fresh durable stack (compaction off), seeds it with
// enough jobs and takes n of them through the layer ops exposes, then
// counts the allocations of a batch of claims.
func (e *env) stackRung(name string, n int, ops func(st *stack, dep string) jobOps) (rt rungTimes, allocs float64, err error) {
	st, err := e.openStack(name, &relstore.Options{CompactEvery: -1}, nil)
	if err != nil {
		return rt, 0, err
	}
	defer st.closer()
	dep, _, _, err := seedCore(st.svc, e.seed, 1000, (n+allocJobs+999)/1000)
	if err != nil {
		return rt, 0, err
	}
	o := ops(st, dep)
	if rt, err = runRung(n, o); err != nil {
		return rt, 0, err
	}
	allocs, err = claimAllocs(o)
	return rt, allocs, err
}

// relstoreRungs times the store below core: one small-row commit with
// and without fsync, an in-memory update, an indexed point select and a
// full scan.
func (e *env) relstoreRungs(n int, vals values) error {
	set := func(name string, xs []float64) { vals.set(name, median(xs), len(xs)) }
	schema := relstore.Schema{Name: "rung", Key: "id", Columns: []relstore.Column{
		{Name: "id", Type: relstore.TString},
		{Name: "status", Type: relstore.TString, Indexed: true},
		{Name: "n", Type: relstore.TInt},
		{Name: "payload", Type: relstore.TString},
	}}
	payload := strings.Repeat("x", 200)
	put := func(db *relstore.DB) func(i int) error {
		return func(i int) error {
			return db.Update(func(tx *relstore.Tx) error {
				return tx.Put("rung", relstore.Row{"id": "row-" + strconv.Itoa(i), "status": "scheduled", "n": int64(i), "payload": payload})
			})
		}
	}
	for _, r := range []struct {
		metric string
		sync   relstore.SyncMode
	}{{"relstore.wal.commit_p50_us", relstore.SyncEveryCommit}, {"relstore.wal.commit_nosync_p50_us", relstore.SyncBatched}} {
		db, err := relstore.Open(filepath.Join(e.work, "ladder-"+r.metric), &relstore.Options{Sync: r.sync, CompactEvery: -1})
		if err != nil {
			return err
		}
		err = db.CreateTable(schema)
		var xs []float64
		if err == nil {
			xs, err = timeEach(n, put(db))
		}
		db.Close()
		if err != nil {
			return err
		}
		set(r.metric, xs)
	}
	vals.set("relstore.wal.fsync_wait_p50_us", vals["relstore.wal.commit_p50_us"].V-vals["relstore.wal.commit_nosync_p50_us"].V, n)

	mem := relstore.OpenMemory()
	defer mem.Close()
	if err := mem.CreateTable(schema); err != nil {
		return err
	}
	rows := max(n, 1000)
	xs, err := timeEach(rows, put(mem))
	if err != nil {
		return err
	}
	set("relstore.update_mem_p50_us", xs)
	xs, err = timeEach(n, func(int) error {
		return mem.View(func(tx *relstore.Tx) error {
			got, err := tx.Select("rung", relstore.NewQuery().Eq("status", "scheduled").Limit(1))
			if err == nil && len(got) != 1 {
				err = fmt.Errorf("select eq limit 1 returned %d rows", len(got))
			}
			return err
		})
	})
	if err != nil {
		return err
	}
	set("relstore.select_eq_limit1_p50_us", xs)
	xs, err = timeEach(20, func(int) error {
		return mem.View(func(tx *relstore.Tx) error {
			seen := 0
			err := tx.SelectFunc("rung", relstore.NewQuery(), func(relstore.Row) bool { seen++; return true })
			if err == nil && seen != rows {
				err = fmt.Errorf("scan saw %d rows, want %d", seen, rows)
			}
			return err
		})
	})
	if err != nil {
		return err
	}
	vals.set("relstore.view_scan_us_per_row", median(xs)/float64(rows), len(xs))
	return nil
}

// engineRungs times what eval_heavy's jobs are made of: the workload
// engine with a no-op apply (generator plus latency histograms), and
// point operations of the two simulators with no simulated I/O wait.
func engineRungs(seed int64, n int, vals values) error {
	perOp := func(name string, ops int, fn func() error) error {
		t := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		vals.set(name, float64(time.Since(t))/float64(ops), ops)
		return nil
	}
	ops := 250 * n
	sched := workload.Config{RecordCount: 1000, OperationCount: int64(ops), Mix: workload.MixFromRatio(50, 50), Distribution: "zipfian", Seed: seed}.WithDefaults().Schedule()
	if err := perOp("workload.engine_ns_per_op", ops, func() error {
		m, err := workload.RunSchedule(sched, 1, func(workload.Op) error { return nil }, nil, nil)
		if err == nil && m.Total.Operations != int64(ops) {
			err = fmt.Errorf("ran %d operations, want %d", m.Total.Operations, ops)
		}
		return err
	}); err != nil {
		return err
	}

	srv, err := mongosim.NewServer(mongosim.EngineWiredTiger, mongosim.Options{WriteLatency: mongosim.NoIO, Seed: seed})
	if err != nil {
		return err
	}
	defer srv.Close()
	coll := srv.Database("bench").Collection("rung")
	docs := 25 * n
	key := func(i int) string { return "user" + strconv.Itoa(1_000_000+i) }
	field := strings.Repeat("f", 100)
	if err := perOp("mongosim.insert_ns_per_op", docs, func() error {
		for i := 0; i < docs; i++ {
			if err := coll.InsertOne(mongosim.Document{mongosim.IDField: key(i), "field0": field, "field1": field}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	stride := 7919 // a prime: walks the keys out of insertion order
	if err := perOp("mongosim.read_ns_per_op", docs, func() error {
		for i := 0; i < docs; i++ {
			if _, err := coll.FindOne(key(i * stride % docs)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := perOp("mongosim.update_ns_per_op", docs, func() error {
		for i := 0; i < docs; i++ {
			if err := coll.UpdateOne(key(i*stride%docs), mongosim.Document{"field0": field}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	db := tssim.NewDB(tssim.Options{Seed: seed})
	const series = 100
	name := func(i int) string { return "sensor" + strconv.Itoa(i%series) }
	if err := perOp("tssim.append_ns_per_op", ops, func() error {
		for i := 0; i < ops; i++ {
			db.Append(name(i), int64(i/series), float64(i))
		}
		return nil
	}); err != nil {
		return err
	}
	windows := 25 * n
	return perOp("tssim.window_ns_per_op", windows, func() error {
		span := int64(ops / series)
		for i := 0; i < windows; i++ {
			from := int64(i) % max(span-128, 1)
			if _, err := db.Window(name(i), from, from+128); err != nil {
				return err
			}
		}
		return nil
	})
}
