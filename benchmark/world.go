//go:build linux

package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"chronos/internal/core"
	"chronos/internal/params"
	"chronos/pkg/client"
)

// The three systems under evaluation the benchmark registers. The two
// simulator names are the ones chronos-agent's -system flag hosts; the
// parameter lists below are the subset of knobs the benchmark sets plus
// "seed", which both simulator runners read from the job's assignment.
// They are declared here rather than imported from mongoagent/tsagent so
// that merging those packages (ROADMAP 3c) does not touch the benchmark.
const (
	sysNoop  = "noop-sim"
	sysMongo = "mongodb-sim"
	sysTS    = "timeseries-sim"
)

func intParam(name string, def int64) params.Definition {
	return params.Definition{Name: name, Type: params.TypeValue, ValueKind: params.KindInt, Default: params.Int(def)}
}

func stringParam(name, def string) params.Definition {
	return params.Definition{Name: name, Type: params.TypeValue, ValueKind: params.KindString, Default: params.String_(def)}
}

func systemDefs(name string) []params.Definition {
	threads := params.Definition{Name: "threads", Type: params.TypeInterval, Min: 1, Max: 128, Default: params.Int(1)}
	switch name {
	case sysMongo:
		return []params.Definition{
			stringParam("engine", "wiredtiger"), threads,
			intParam("records", 10000), intParam("operations", 20000),
			{Name: "mix", Type: params.TypeRatio, RatioParts: []string{"read", "update"}, Default: params.Ratio(50, 50)},
			stringParam("distribution", "zipfian"), intParam("seed", 1),
		}
	case sysTS:
		return []params.Definition{
			intParam("series", 1000), intParam("points", 32), threads,
			intParam("operations", 20000),
			{Name: "mix", Type: params.TypeRatio, RatioParts: []string{"append", "window"}, Default: params.Ratio(90, 10)},
			stringParam("distribution", "latest"), intParam("window", 128), intParam("seed", 1),
		}
	default:
		return []params.Definition{intParam("v", 0), intParam("seed", 1)}
	}
}

// newClient returns an SDK client with a transport of its own, so each
// load goroutine holds exactly one connection and the client count of a
// workload is the connection count.
func newClient(url string, opts ...client.Option) *client.Client {
	return newClientWith(&http.Transport{MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute}, url, opts...)
}

func newClientWith(rt http.RoundTripper, url string, opts ...client.Option) *client.Client {
	base := []client.Option{
		client.WithVersion("v2"),
		client.WithHTTPClient(&http.Client{Transport: rt, Timeout: 30 * time.Second}),
	}
	return client.NewClient(url, append(base, opts...)...)
}

// world is one seeded Chronos installation: the server processes, the
// entities every workload needs, and what was submitted to it.
type world struct {
	env     *env
	dir     string // holds leader/ and follower/ data dirs
	leader  *proc
	foll    *proc // nil without a follower
	admin   *client.Client
	project string

	system     map[string]string // system name -> system id
	deployment map[string]string // system name -> deployment id
	experiment map[string]string // system name -> experiment id
	evals      []string          // evaluation ids, submission order
	submitted  int               // jobs submitted in total
}

// env is what all worlds of one benchmark process share.
type env struct {
	bin string // directory with chronos-control and chronos-agent
	out string // -out directory: logs, spans, summary
	// keepOut is false when out is the default directory, which a clean
	// run removes again.
	keepOut bool
	work    string // scratch for data directories
	procs   *procs
	seed    int64
	nproc   int
	seq     int // numbers the worlds so their directories do not collide

	fsyncUs float64 // hw.fsync_p50_us, probed once at start
	twin    *proc   // the twin server (twin.go), one per benchmark process
}

// clients is the load rule: C = min(nproc, 4) client goroutines per
// workload, never more.
func (e *env) clients() int { return min(e.nproc, 4) }

func (e *env) startControl(name, dataDir string, extra ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr, "-data", dataDir}, extra...)
	// The store seeds its ids and jitter from CHRONOS_SESSION_SEED.
	seedEnv := []string{"CHRONOS_SESSION_SEED=" + strconv.FormatInt(e.seed, 10)}
	p, err := e.procs.start(filepath.Join(e.bin, "chronos-control"), filepath.Join(e.out, name+".log"), "http://"+addr, seedEnv, args...)
	if err != nil {
		return nil, err
	}
	if _, err := waitPing(p.url, p, 20*time.Second); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

// sweep is n distinct seed-derived values for the swept parameter.
func sweep(seed int64, n int) []params.Value {
	r := rand.New(rand.NewPCG(uint64(seed), 0x6368726f6e6f73))
	base, stride := r.Int64N(1_000_000), 1+r.Int64N(9)
	out := make([]params.Value, n)
	for i := range out {
		out[i] = params.Int(base + int64(i)*stride)
	}
	return out
}

// plan says what a workload's set-up creates.
type plan struct {
	follower bool
	// variants and evals size the no-op queue: evals evaluations of
	// variants jobs each.
	variants, evals int
	// heavy registers the two simulator systems; their jobs are
	// submitted one at a time while the workload runs, each sized by
	// scale (1 = about half a second per job on the quiet 2-vCPU sandbox).
	heavy bool
	scale float64
}

// setup starts the processes, waits for ping, seeds user, project,
// systems, deployments and experiments, and pre-fills the queue. Its
// wall time is setup_s.
func (e *env) setup(name string, pl plan) (*world, time.Duration, error) {
	start := time.Now()
	e.seq++
	w := &world{
		env: e, dir: filepath.Join(e.work, fmt.Sprintf("%s-%d", name, e.seq)),
		system: map[string]string{}, deployment: map[string]string{}, experiment: map[string]string{},
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return nil, 0, err
	}
	var err error
	if w.leader, err = e.startControl(fmt.Sprintf("%s-%d-leader", name, e.seq), filepath.Join(w.dir, "leader")); err != nil {
		return nil, 0, err
	}
	if pl.follower {
		w.foll, err = e.startControl(fmt.Sprintf("%s-%d-follower", name, e.seq), filepath.Join(w.dir, "follower"), "-replicate-from", w.leader.url)
		if err != nil {
			w.teardown()
			return nil, 0, err
		}
	}
	w.admin = newClient(w.leader.url)
	if err := w.seedEntities(pl); err != nil {
		w.teardown()
		return nil, 0, err
	}
	if pl.follower {
		if err := w.awaitFollower(); err != nil {
			w.teardown()
			return nil, 0, err
		}
	}
	return w, time.Since(start), nil
}

func (w *world) seedEntities(pl plan) error {
	u, err := w.admin.CreateUser("bench", core.RoleAdmin)
	if err != nil {
		return fmt.Errorf("create user: %w", err)
	}
	p, err := w.admin.CreateProject("bench", "benchmark project", u.ID, nil)
	if err != nil {
		return fmt.Errorf("create project: %w", err)
	}
	w.project = p.ID
	seed := []params.Value{params.Int(w.env.seed)}
	if pl.variants > 0 {
		settings := map[string][]params.Value{"v": sweep(w.env.seed, pl.variants), "seed": seed}
		if err := w.addSystem(sysNoop, settings); err != nil {
			return err
		}
		for i := 0; i < pl.evals; i++ {
			if _, err := w.submit(sysNoop); err != nil {
				return err
			}
		}
	}
	if pl.heavy {
		for _, sys := range []string{sysMongo, sysTS} {
			if err := w.addSystem(sys, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// heavySettings is the one-job sweep of a simulator evaluation: the job
// differs from its siblings in the workload generator's seed only.
func (w *world) heavySettings(system string, scale float64, jobSeed int64) map[string][]params.Value {
	one := func(v params.Value) []params.Value { return []params.Value{v} }
	threads := one(params.Int(int64(w.env.nproc)))
	if system == sysMongo {
		return map[string][]params.Value{
			"records": one(params.Int(5000)), "operations": one(params.Int(int64(25000 * scale))),
			"threads": threads, "mix": one(params.Ratio(50, 50)),
			"distribution": one(params.String_("zipfian")), "seed": one(params.Int(jobSeed)),
		}
	}
	return map[string][]params.Value{
		"series": one(params.Int(1000)), "operations": one(params.Int(int64(250000 * scale))),
		"threads": threads, "seed": one(params.Int(jobSeed)),
	}
}

// addSystem registers a system and deploys it; with settings it also
// creates the system's sweep experiment.
func (w *world) addSystem(name string, settings map[string][]params.Value) error {
	sys, err := w.admin.RegisterSystem(name, "benchmark SuE", systemDefs(name), nil)
	if err != nil {
		return fmt.Errorf("register %s: %w", name, err)
	}
	dep, err := w.admin.CreateDeployment(sys.ID, name+"-bench", "sandbox", runtime.Version())
	if err != nil {
		return fmt.Errorf("deploy %s: %w", name, err)
	}
	w.system[name], w.deployment[name] = sys.ID, dep.ID
	if settings == nil {
		return nil
	}
	return w.addExperiment(name, name+"-sweep", settings)
}

// addExperiment creates (or replaces) the experiment submit schedules
// for the system.
func (w *world) addExperiment(system, name string, settings map[string][]params.Value) error {
	exp, err := w.admin.CreateExperiment(w.project, w.system[system], name, "", settings, 1)
	if err != nil {
		return fmt.Errorf("experiment %s: %w", name, err)
	}
	w.experiment[system] = exp.ID
	return nil
}

// submit schedules one evaluation of the system's experiment.
func (w *world) submit(system string) (string, error) {
	return w.submitWith(w.admin, system)
}

func (w *world) submitWith(c *client.Client, system string) (string, error) {
	ev, jobs, err := c.CreateEvaluation(w.experiment[system])
	if err != nil {
		return "", fmt.Errorf("create evaluation (%s): %w", system, err)
	}
	w.evals = append(w.evals, ev.ID)
	w.submitted += len(jobs)
	return ev.ID, nil
}

// awaitFollower returns once the follower serves the newest evaluation:
// the admin client's session token makes the read wait for the replica.
func (w *world) awaitFollower() error {
	c := newClient(w.foll.url)
	deadline := time.Now().Add(20 * time.Second)
	last := w.evals[len(w.evals)-1]
	for {
		st, err := c.EvaluationStatus(last)
		if err == nil && st.Total > 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower did not catch up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// teardown kills the world's processes and removes its data.
func (w *world) teardown() {
	if w.foll != nil {
		w.foll.kill()
		w.foll = nil
	}
	if w.leader != nil {
		w.leader.kill()
		w.leader = nil
	}
	os.RemoveAll(w.dir)
}
