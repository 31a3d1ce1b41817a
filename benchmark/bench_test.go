//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the twin server, which the
// benchmark starts from its own executable.
func TestMain(m *testing.M) {
	if v := os.Getenv(twinEnv); v != "" {
		addr, dir, _ := strings.Cut(v, ",")
		fatal(1, "twin server: %v", twinServe(addr, dir))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifest keeps BENCHMARK.json equal to the metric table.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := buildManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the metric table; regenerate it with: go run ./benchmark -manifest > BENCHMARK.json")
	}
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %v", m.Name, nameRE)
			}
			if seen[m.Name] {
				t.Errorf("metric %q is declared twice", m.Name)
			}
			seen[m.Name] = true
			if m.Contract == inEndToEnd && (m.Bound <= 0 || m.Bound > 0.25 || len(m.Workloads) > 0) {
				t.Errorf("%s: a gated metric needs a bound in (0, 0.25] and must be defined on every workload", m.Name)
			}
		}
	}
	for _, w := range workloadNames {
		if !nameRE.MatchString(w) || len(workloadWhy[w]) == 0 || len(workloadWhy[w]) > 200 {
			t.Errorf("workload %q: bad name or why", w)
		}
	}
}

// TestSmoke runs every workload for about a second, the traced pair and
// a 200-operation ladder, and checks that what the program reports is
// what BENCHMARK.json declares, under the declared names, with no
// failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the real binaries")
	}
	var out bytes.Buffer
	o := options{seed: 1, seconds: 1, ladderOps: 200, root: "..", base: t.TempDir()}
	e, err := newEnv(o, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	s, err := e.runSet(o, true, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	t.Log(out.String())

	declared := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			declared[m.Name] = true
		}
	}
	if len(s.Workloads) != len(workloadNames) {
		t.Fatalf("ran %d workloads, want %d", len(s.Workloads), len(workloadNames))
	}
	for _, wl := range workloadNames {
		r := s.Workloads[wl]
		for _, p := range r.problems {
			t.Errorf("%s: correctness: %s", wl, p)
		}
		if r.failed != 0 || r.vals["failed_share"].V != 0 {
			t.Errorf("%s: failed_share = %v (%d of %d)", wl, r.vals["failed_share"].V, r.failed, r.attempted)
		}
		for name := range r.vals {
			if !declared[name] {
				t.Errorf("%s printed undeclared metric %q", wl, name)
			}
		}
		// Every workload reports every gated metric.
		for _, m := range endToEnd {
			if _, ok := r.vals[m.Name]; !ok {
				t.Errorf("%s: end-to-end metric %s was not measured", wl, m.Name)
			}
		}
		// The driver's two result lines carry exactly the declared names.
		for _, traced := range []bool{false, true} {
			list := inEndToEnd
			if traced {
				list = inPerLayer
			}
			var want []string
			for _, m := range contractMetrics(list) {
				want = append(want, m.Name)
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(contractLine(s, wl, traced)), &line); err != nil {
				t.Fatal(err)
			}
			var got []string
			for name := range line.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: result line has %v, BENCHMARK.json declares %v", wl, traced, got, want)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, traced, line.Correct, line.Attempted, line.Failed)
			}
			if !traced {
				for name, v := range line.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: gated metric %s = %v, must never be 0", wl, name, v.Value)
					}
				}
			}
		}
	}
	for name := range s.Traced {
		if !declared[name] {
			t.Errorf("traced run printed undeclared metric %q", name)
		}
	}
	b, err := json.Marshal(summaryOf([]*set{s}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(b), `"claim":null}`) {
		t.Errorf("summary does not end with \"claim\": null: ...%s", b[max(0, len(b)-40):])
	}
}
