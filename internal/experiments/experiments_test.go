package experiments

import (
	"strings"
	"testing"
	"time"

	"chronos/internal/core"
	"chronos/internal/mongosim"
	"chronos/internal/params"
)

// fastConfig keeps the experiment tests quick: tiny workloads, no
// simulated I/O (shape assertions that depend on I/O overlap are done in
// the benches, which use the faithful configuration).
func fastConfig() Config {
	return Config{
		Records:      300,
		Operations:   600,
		Threads:      []int64{1, 2},
		WriteLatency: mongosim.NoIO,
	}
}

func TestE1Architecture(t *testing.T) {
	rep, err := E1Architecture(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Data["doneA"] != true || rep.Data["doneB"] != true {
		t.Fatalf("evaluations incomplete: %v", rep.Data)
	}
	if rep.Data["finishedA"].(int) < 2 || rep.Data["finishedB"].(int) != 3 {
		t.Fatalf("finished counts: %v", rep.Data)
	}
	if !strings.Contains(rep.String(), "both evaluations done") {
		t.Fatalf("report:\n%s", rep)
	}
}

func TestE2SystemRegistration(t *testing.T) {
	rep, err := E2SystemRegistration()
	if err != nil {
		t.Fatal(err)
	}
	// All five parameter types of the paper appear in the demo system
	// except checkbox (the MongoDB demo has none), so assert on the four
	// it uses plus diagram lines.
	typesSeen := rep.Data["typesSeen"].(map[params.Type]bool)
	for _, want := range []params.Type{params.TypeValue, params.TypeInterval, params.TypeRatio} {
		if !typesSeen[want] {
			t.Fatalf("parameter type %s missing", want)
		}
	}
	out := rep.String()
	for _, want := range []string{"engine", "threads", "mix", "diagram: line"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestE3ParamSpace(t *testing.T) {
	rep, err := E3ParamSpace()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Data["allMatch"] != true {
		t.Fatalf("cardinality mismatch:\n%s", rep)
	}
}

func TestE4ParallelDeployments(t *testing.T) {
	rep, err := E4ParallelDeployments(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	speedup := rep.Data["speedup"].(float64)
	// 8 I/O-bound jobs over 4 deployments: expect clearly >1.5x even on a
	// loaded single-core machine (ideal is ~4x).
	if speedup < 1.5 {
		t.Fatalf("parallel deployments speedup = %.2fx:\n%s", speedup, rep)
	}
}

func TestE5JobLifecycle(t *testing.T) {
	rep, err := E5JobLifecycle()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Data["job1"] != string(core.StatusFinished) {
		t.Fatalf("job1 = %v", rep.Data["job1"])
	}
	if rep.Data["job2"] != string(core.StatusAborted) {
		t.Fatalf("job2 = %v", rep.Data["job2"])
	}
	if rep.Data["job3"] != string(core.StatusFinished) {
		t.Fatalf("job3 = %v", rep.Data["job3"])
	}
	if rep.Data["statusAfterAbort"] != string(core.StatusAborted) {
		t.Fatalf("agent-visible status after abort = %v", rep.Data["statusAfterAbort"])
	}
	out := rep.String()
	for _, want := range []string{"created", "claimed", "aborted", "rescheduled", "finished"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}

func TestE6EngineComparisonShape(t *testing.T) {
	// Use the faithful configuration (simulated write I/O on) with enough
	// operations that the lock-granularity phenomenon dominates noise.
	cfg := Config{
		Records:    500,
		Operations: 8000,
		Threads:    []int64{1, 8},
	}
	rep, res, err := E6EngineComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const mix = "write-heavy 50:50"
	wt, ok1 := res.Series(mix, "wiredtiger")
	mm, ok2 := res.Series(mix, "mmapv1")
	if !ok1 || !ok2 {
		t.Fatalf("missing series: %v", res.Mixes)
	}
	if len(wt.Throughput) != 2 || len(mm.Throughput) != 2 {
		t.Fatalf("series lengths: wt=%d mm=%d", len(wt.Throughput), len(mm.Throughput))
	}
	// The headline claim: at 8 threads wiredTiger clearly beats mmapv1 on
	// the write-heavy mix (document-level vs collection-level locking).
	if wt.Throughput[1] < 1.5*mm.Throughput[1] {
		t.Fatalf("wiredTiger should win at 8 threads: wt=%.0f mm=%.0f\n%s",
			wt.Throughput[1], mm.Throughput[1], rep)
	}
	// And wiredTiger scales with threads while mmapv1 stays roughly flat.
	if wt.Throughput[1] < 1.5*wt.Throughput[0] {
		t.Fatalf("wiredTiger did not scale: %v\n%s", wt.Throughput, rep)
	}
	if mm.Throughput[1] > 2.5*mm.Throughput[0] {
		t.Fatalf("mmapv1 unexpectedly scaled: %v\n%s", mm.Throughput, rep)
	}
	// The report embeds the rendered line diagram.
	if !strings.Contains(rep.String(), "Throughput vs Threads") {
		t.Fatalf("diagram missing:\n%s", rep)
	}
}

func TestE7APIVersioning(t *testing.T) {
	rep, err := E7APIVersioning()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Data["v1Defs"].(int) != 0 {
		t.Fatalf("v1 claim leaked definitions: %v", rep.Data)
	}
	if rep.Data["v2Defs"].(int) == 0 {
		t.Fatalf("v2 claim missing definitions: %v", rep.Data)
	}
}

func TestE8FailureRecovery(t *testing.T) {
	rep, err := E8FailureRecovery(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Data["flakyFinal"] != string(core.StatusFinished) {
		t.Fatalf("flaky job final = %v", rep.Data["flakyFinal"])
	}
	if rep.Data["flakyAttempts"].(int64) != 3 {
		t.Fatalf("flaky attempts = %v", rep.Data["flakyAttempts"])
	}
	if rep.Data["watchdogFailed"].(int) != 1 {
		t.Fatalf("watchdog failed = %v", rep.Data["watchdogFailed"])
	}
	if rep.Data["recoveredStatus"] != string(core.StatusScheduled) {
		t.Fatalf("recovered status = %v", rep.Data["recoveredStatus"])
	}
	if rep.Data["allFinished"] != true {
		t.Fatalf("evaluation incomplete:\n%s", rep)
	}
	if rep.Data["archiveResults"].(int) != 2 {
		t.Fatalf("archive results = %v", rep.Data["archiveResults"])
	}
}

func TestConfigs(t *testing.T) {
	q, f := Quick(), Full()
	if q.Records >= f.Records || q.Operations >= f.Operations {
		t.Fatal("Quick should be smaller than Full")
	}
	if len(f.Threads) < len(q.Threads) {
		t.Fatal("Full should sweep at least as many thread counts")
	}
}

func TestReportString(t *testing.T) {
	rep := newReport("EX", "título")
	rep.Printf("line %d", 1)
	out := rep.String()
	if !strings.Contains(out, "EX") || !strings.Contains(out, "line 1") {
		t.Fatalf("report = %q", out)
	}
}

// Guard: experiment configs must keep the engines' default latency when
// WriteLatency is zero (the faithful simulation).
func TestEngineOptionsPassThrough(t *testing.T) {
	opts := engineOptions(Config{}, 3)
	if opts.WriteLatency != 0 || opts.Seed != 3 {
		t.Fatalf("opts = %+v", opts)
	}
	opts = engineOptions(Config{WriteLatency: mongosim.NoIO}, 1)
	if opts.WriteLatency >= 0 {
		t.Fatalf("NoIO not passed through: %v", opts.WriteLatency)
	}
	_ = time.Second
}

func TestE9DynamicDriftShape(t *testing.T) {
	t.Setenv("CHRONOS_SESSION_SEED", "1234")
	cfg := fastConfig()
	cfg.Records = 400
	cfg.Operations = 2000
	rep, res, err := E9DynamicDrift(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total, ok := workloadTotal(res.Schedule)
	if !ok || total != cfg.Operations {
		t.Fatalf("schedule volume = %d (%v)", total, ok)
	}
	for _, system := range []string{"mongodb-sim", "timeseries-sim"} {
		fam := res.Families[system]
		if fam == nil {
			t.Fatalf("family %s missing", system)
		}
		if len(fam.Phases) != 3 {
			t.Fatalf("%s phases = %d", system, len(fam.Phases))
		}
		var sum int64
		for i, name := range []string{"steady", "shift", "surge"} {
			p := fam.Phases[i]
			if p.Phase != name || p.Index != i {
				t.Fatalf("%s phase %d = %+v", system, i, p)
			}
			if p.Operations <= 0 || p.Throughput <= 0 || p.DurationMs <= 0 {
				t.Fatalf("%s phase %s empty: %+v", system, name, p)
			}
			// timeseries-sim answers in under a microsecond: whole-number
			// microseconds read its p50 as 0.
			if p.LatencyP50Us <= 0 || p.LatencyP95Us < p.LatencyP50Us {
				t.Fatalf("%s phase %s latencies p50=%v p95=%v us", system, name, p.LatencyP50Us, p.LatencyP95Us)
			}
			sum += p.Operations
		}
		if sum != cfg.Operations {
			t.Fatalf("%s executed %d ops, want %d", system, sum, cfg.Operations)
		}
		// The surge phase's inserts grew the dataset in both families.
		if fam.Growth <= 0 {
			t.Fatalf("%s dataset did not grow: %d", system, fam.Growth)
		}
	}
	if !strings.Contains(rep.String(), "surge") {
		t.Fatalf("report:\n%s", rep)
	}

	// Replay determinism: the seeded session reproduces the exact same
	// per-phase op/error/growth outcome (timings legitimately differ).
	_, res2, err := E9DynamicDrift(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for system, fam := range res.Families {
		fam2 := res2.Families[system]
		if fam.Growth != fam2.Growth {
			t.Fatalf("%s replay growth %d vs %d", system, fam.Growth, fam2.Growth)
		}
		for i := range fam.Phases {
			a, b := fam.Phases[i], fam2.Phases[i]
			if a.Operations != b.Operations || a.Errors != b.Errors || a.Mix != b.Mix {
				t.Fatalf("%s replay phase %d diverged: %+v vs %+v", system, i, a, b)
			}
		}
	}
}
