//go:build linux

// Command benchmark is the one benchmark of Chronos itself: four
// workloads over the real chronos-control and chronos-agent binaries,
// end-to-end metrics measured with tracing off, and a traced in-process
// run plus a layer ladder for the per-layer numbers. See README.md.
//
//	go run ./benchmark                       every workload, then the traced run
//	go run ./benchmark -workload fleet_noop  one workload
//	go run ./benchmark -workload traced      the traced run and the ladder alone
//	go run ./benchmark -repeat 2             whole sets, spread against the bounds
//
// With -workload the last line of standard output is the result object
// the driver reads (BENCHMARK.json); without it the last line is the
// full JSON summary, which ends with "claim": null.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const wlTraced = "traced"

// rungOps is the operation count of every ladder rung: half the ISSUE's
// 2000, so that the ladder still fits a driver run when the host is
// several times slower than usual (medians of 1000 are as steady).
const rungOps = 1000

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	out      string
	manifest bool
	// ladderOps is rungOps; the smoke test sets fewer.
	ladderOps int

	// root is the repository root and base the directory everything is
	// written under; the smoke test points them elsewhere.
	root, base string
}

func main() {
	if v := os.Getenv(twinEnv); v != "" {
		addr, dir, _ := strings.Cut(v, ",")
		fatal(1, "twin server: %v", twinServe(addr, dir))
	}
	o := options{root: ".", base: ".bench_build", ladderOps: rungOps}
	flag.StringVar(&o.workload, "workload", "", "run one of "+strings.Join(workloadNames, ", ")+", or \"traced\" for the traced run and ladder alone (default: everything)")
	flag.Int64Var(&o.seed, "seed", 1, "drives sweep values, job seeds, read order and CHRONOS_SESSION_SEED of the child processes")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measured seconds per workload")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 1 adds the traced run and the ladder and reports the per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 0, "run the workloads N times on each of seed and seed+1, in turn, and compare the two medians with the bounds")
	flag.StringVar(&o.out, "out", "", "directory for child logs, spans and summary.json (default .bench_build/out-<pid>)")
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as the metric table defines it, and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(2, "unexpected arguments: %v", flag.Args())
	}
	if o.manifest {
		b, _ := json.MarshalIndent(buildManifest(), "", "  ")
		fmt.Println(string(b))
		return
	}
	code, err := run(o, os.Stdout)
	if err != nil {
		fatal(1, "%v", err)
	}
	os.Exit(code)
}

func fatal(code int, format string, a ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", a...)
	os.Exit(code)
}

// newEnv builds the binaries and prepares the directories. Everything
// the benchmark writes stays under .bench_build in the working
// directory, which must be the repository root.
func newEnv(o options, stdout io.Writer) (*env, error) {
	if _, err := os.Stat(filepath.Join(o.root, "cmd", "chronos-control")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %v", err)
	}
	base := o.base
	out, keepOut := o.out, true
	if out == "" {
		// Without -out the logs are only worth keeping when something
		// went wrong; close removes them after a clean run.
		out, keepOut = filepath.Join(base, fmt.Sprintf("out-%d", os.Getpid())), false
	}
	work := filepath.Join(base, fmt.Sprintf("work-%d", os.Getpid()))
	for _, d := range []string{out, work} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	e := &env{bin: filepath.Join(base, "bin"), out: out, keepOut: keepOut, work: work, procs: &procs{}, seed: o.seed, nproc: runtime.NumCPU()}
	built, err := buildBinaries(o.root, e.bin)
	if err != nil {
		return nil, err
	}
	fsync, err := fsyncProbe(work, 200)
	if err != nil {
		return nil, fmt.Errorf("fsync probe: %w", err)
	}
	e.fsyncUs = fsync
	if e.twin, err = e.startTwin(); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# chronos benchmark: seed=%d nproc=%d GOMAXPROCS=%d %s fs=%s hw.fsync_p50_us=%.1f build=%.1fs\n",
		o.seed, e.nproc, runtime.GOMAXPROCS(0), runtime.Version(), fsType(work), fsync, built.Seconds())
	fmt.Fprintf(stdout, "# chronos-control flags: %s; flush policy SyncEveryCommit (group commit)\n", serverFlags)
	fmt.Fprintf(stdout, "# load rule: C=min(nproc,4)=%d client goroutines per workload in total; agents closed loop, viewers open loop and timed from due time; child logs in %s\n", e.clients(), out)
	fmt.Fprintf(stdout, "# twin: each closed-loop client runs %v of its workload, then %v of twin jobs (%d durable calls to this binary's twin server), in turn; x = multiples of the twin's\n", phaseWork, phaseTwin, twinCalls)
	return e, nil
}

// close stops every child process still running and removes the data
// directories.
func (e *env) close() {
	e.procs.stopAll()
	os.RemoveAll(e.work)
	if !e.keepOut {
		os.RemoveAll(e.out)
	}
}

// optsFor derives the run shape from the measured seconds: short runs
// (the smoke test) keep one set-up and one recovery cycle.
func optsFor(seconds float64, traced bool) runOpts {
	o := runOpts{seconds: time.Duration(seconds * float64(time.Second)), warmup: time.Second, setups: 3, recoveries: 3, traced: traced}
	if seconds < 5 {
		o.warmup = time.Duration(seconds * 0.3 * float64(time.Second))
		o.setups, o.recoveries = 1, 1
	}
	return o
}

// set is one pass over the selected workloads (and traced run).
type set struct {
	Seed      int64
	Workloads map[string]*result
	Traced    values
	Notes     []string // traced-run notes and harness errors
}

func run(o options, stdout io.Writer) (int, error) {
	if o.workload != "" && o.workload != wlTraced {
		if _, ok := workloadWhy[o.workload]; !ok {
			return 0, fmt.Errorf("unknown workload %q (have %v and %q)", o.workload, workloadNames, wlTraced)
		}
	}
	e, err := newEnv(o, stdout)
	if err != nil {
		return 0, err
	}
	defer e.close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()

	if o.repeat > 0 {
		return e.repeat(o, stdout)
	}
	s, err := e.runSet(o, o.workload == "" || o.workload == wlTraced || o.trace == 1, stdout)
	if err != nil {
		e.keepOut = true
		return 0, err
	}
	if err := writeSummary(e.out, []*set{s}); err != nil {
		return 0, err
	}
	code := 0
	for _, r := range s.Workloads {
		if len(r.problems) > 0 {
			code, e.keepOut = 1, true
		}
	}
	if o.workload != "" && o.workload != wlTraced {
		// Driver mode: exactly one result object as the last line.
		fmt.Fprintln(stdout, contractLine(s, o.workload, o.trace == 1))
		return code, nil
	}
	b, err := json.Marshal(summaryOf([]*set{s}))
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(stdout, string(b))
	return code, nil
}

// runSet runs the selected workloads once, printing each as it
// completes. With perLayer it also takes the per-layer numbers: the
// workloads run their per-layer samplers, and the traced run and the
// ladder follow.
func (e *env) runSet(o options, perLayer bool, stdout io.Writer) (*set, error) {
	s := &set{Seed: e.seed, Workloads: map[string]*result{}}
	single := o.workload != "" && o.workload != wlTraced
	seconds := o.seconds
	if single && perLayer {
		// A traced run shares its time budget between the workload's own
		// untraced run (for the M, P and R metrics), the traced pair and
		// the ladder.
		seconds = max(1, o.seconds/3)
	}
	for _, name := range workloadNames {
		if o.workload != "" && o.workload != name {
			continue
		}
		r, err := e.runWorkload(name, optsFor(seconds, perLayer))
		if err != nil {
			return nil, err
		}
		r.vals.set("hw.fsync_p50_us", e.fsyncUs, 200)
		r.vals.set("hw.nproc", float64(e.nproc), 1)
		s.Workloads[name] = r
		printWorkload(stdout, r)
	}
	if perLayer {
		pair := o.seconds / 6
		if !single {
			pair = min(10, o.seconds*2/3)
		}
		traced, notes, err := e.tracedRun(time.Duration(max(0.5, pair)*float64(time.Second)), o.ladderOps)
		if err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
		s.Traced, s.Notes = traced, notes
		printTraced(stdout, s)
	}
	return s, nil
}

// contractLine renders the driver's result object: the gated end-to-end
// metrics with tracing off, the per-layer list with tracing on.
func contractLine(s *set, workload string, traced bool) string {
	r := s.Workloads[workload]
	list := inEndToEnd
	if traced {
		list = inPerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, m := range contractMetrics(list) {
		v, ok := r.vals[m.Name]
		if !ok {
			v, ok = s.Traced[m.Name]
		}
		if !ok {
			// Listed but not measured: say so on stderr and leave it out,
			// so the driver refuses the line instead of reading a zero.
			fmt.Fprintf(os.Stderr, "benchmark: HARNESS ERROR: %s was not measured on %s\n", m.Name, workload)
			continue
		}
		metrics[m.Name] = mv{Value: v.V, Unit: m.Unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{len(r.problems) == 0, max(r.attempted, 1), r.failed, metrics})
	return string(b)
}
