package agent_test

import (
	"archive/zip"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"chronos/internal/agent"
	"chronos/internal/agent/sims"
	"chronos/internal/core"
	"chronos/internal/metrics"
	"chronos/internal/mongoagent"
	"chronos/internal/mongosim"
	"chronos/internal/params"
	"chronos/internal/relstore"
	"chronos/internal/tsagent"
)

var rewrite = flag.Bool("update", false, "rewrite the golden files under testdata from this run")

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *rewrite {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs (go test ./internal/agent -run %s -update, then review the diff):\n%s", path, t.Name(), got)
	}
}

// TestSystemDefinitionGolden pins both families' registered parameter
// definitions and diagrams byte for byte, as Chronos Control stores them.
func TestSystemDefinitionGolden(t *testing.T) {
	for _, fam := range sims.Families {
		defs, diagrams := fam.Definition()
		b, err := json.MarshalIndent(map[string]any{"parameters": defs, "diagrams": diagrams}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fam.Name+".definition.json", append(b, '\n'))
	}
}

// driftSpec is a three-phase schedule that shifts the mix, the key
// distribution and grows the data set.
const driftSpec = "phase=steady,ops=600,mix=read:95+update:5,dist=zipfian;" +
	"phase=shift,ops=500,mix=read:40+update:40+scan:10+rmw:10,dist=uniform;" +
	"phase=surge,ops=400,mix=insert:40+read:60,dist=latest,grow=1"

// volatile lists the result-document keys whose values are timings or
// depend on how the loaders' goroutines interleave: the golden files keep
// the key and mask the value.
var volatile = map[string]bool{
	"throughput": true, "latency_mean_us": true, "latency_p50_us": true,
	"latency_p95_us": true, "latency_p99_us": true, "phases": true,
	"durationMs": true, "latencyP50Us": true, "latencyP95Us": true, "latencyP99Us": true,
	"windowPoints": true,
}

// mask replaces every volatile value in a decoded JSON document.
func mask(v any) any {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			if volatile[k] {
				v[k] = "masked"
			} else {
				v[k] = mask(x)
			}
		}
	case []any:
		for i, x := range v {
			v[i] = mask(x)
		}
	}
	return v
}

var digits = regexp.MustCompile(`[0-9]+`)

// TestRunnerOutputsGolden runs one job per family, engine and schedule
// shape at one thread and a fixed seed through a real agent, and pins what
// the job leaves behind: the result document with its timings masked, the
// latencies.csv header and row names, and the job log with its numbers
// masked.
func TestRunnerOutputsGolden(t *testing.T) {
	cases := []struct {
		name   string
		system string
		params map[string]params.Value
	}{
		{"wiredtiger", mongoagent.SystemName,
			map[string]params.Value{"engine": params.String_("wiredtiger"), "records": params.Int(500), "operations": params.Int(1500)}},
		{"mmapv1", mongoagent.SystemName,
			map[string]params.Value{"engine": params.String_("mmapv1"), "records": params.Int(500), "operations": params.Int(1500)}},
		{"tssim", tsagent.SystemName,
			map[string]params.Value{"series": params.Int(200), "points": params.Int(4), "operations": params.Int(1500)}},
	}
	for _, tc := range cases {
		fam, _ := sims.Lookup(tc.system)
		for _, sched := range []string{"", driftSpec} {
			name := tc.name + ".static"
			settings := map[string][]params.Value{"threads": {params.Int(1)}, "seed": {params.Int(7)}}
			if sched != "" {
				name = tc.name + ".schedule"
				settings["schedule"] = []params.Value{params.String_(sched)}
			}
			for k, v := range tc.params {
				settings[k] = []params.Value{v}
			}
			t.Run(name, func(t *testing.T) {
				doc, csv, log := runJob(t, fam, settings)
				b, err := json.MarshalIndent(mask(doc), "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, name+".result.json", append(b, '\n'))
				var rows []string
				for _, line := range strings.Split(strings.TrimSuffix(csv, "\n"), "\n") {
					rows = append(rows, strings.SplitN(line, ",", 2)[0])
				}
				header, _, _ := strings.Cut(csv, "\n")
				checkGolden(t, name+".latencies.txt", []byte(header+"\n"+strings.Join(rows[1:], "\n")+"\n"))
				checkGolden(t, name+".log.txt", digits.ReplaceAll([]byte(log), []byte("N")))
			})
		}
	}
}

// runJob registers fam's system with an extra "seed" parameter, runs one
// job of the given settings through an in-process agent without simulated
// I/O waits, and returns its decoded result document, latencies.csv and
// concatenated log.
func runJob(t *testing.T, fam sims.Family, settings map[string][]params.Value) (map[string]any, string, string) {
	t.Helper()
	svc, err := core.NewService(relstore.OpenMemory(), metrics.NewManualClock(time.Unix(1e9, 0)).Now)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := svc.CreateUser("golden", core.RoleAdmin)
	p, _ := svc.CreateProject("golden", "", u.ID, nil)
	defs, diagrams := fam.Definition()
	defs = append(defs, params.Definition{Name: "seed", Type: params.TypeValue, ValueKind: params.KindInt, Default: params.Int(1)})
	sys, err := svc.RegisterSystem(fam.Name, "", defs, diagrams)
	if err != nil {
		t.Fatal(err)
	}
	dep, _ := svc.CreateDeployment(sys.ID, "golden", "inprocess", "1")
	exp, err := svc.CreateExperiment(p.ID, sys.ID, "golden", "", settings, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, jobs, err := svc.CreateEvaluation(exp.ID)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("evaluation: %v, %d jobs", err, len(jobs))
	}
	a := &agent.Agent{Control: &agent.LocalControl{Svc: svc}, DeploymentID: dep.ID, Factory: fam.Factory(mongosim.NoIO, 0), ReportInterval: time.Hour}
	if n, err := a.Drain(context.Background()); err != nil || n != 1 {
		t.Fatalf("drain: %d jobs, %v", n, err)
	}
	res, err := svc.GetJobResult(jobs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(res.JSON, &doc); err != nil {
		t.Fatal(err)
	}
	zr, err := zip.NewReader(bytes.NewReader(res.Archive), int64(len(res.Archive)))
	if err != nil {
		t.Fatal(err)
	}
	var csv []byte
	for _, f := range zr.File {
		if f.Name == "latencies.csv" {
			rc, _ := f.Open()
			csv, _ = io.ReadAll(rc)
			rc.Close()
		}
	}
	chunks, err := svc.JobLogs(jobs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	var log strings.Builder
	for _, c := range chunks {
		log.WriteString(c.Text)
	}
	return doc, string(csv), log.String()
}
