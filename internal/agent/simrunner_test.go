package agent_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"chronos/internal/agent"
	"chronos/internal/agent/sims"
	"chronos/internal/mongoagent"
	"chronos/internal/mongosim"
	"chronos/internal/params"
	"chronos/internal/tsagent"
	"chronos/internal/workload"
)

// step is one scripted operation of the conformance suite, in the shape of
// maho's storeCmd tables: fln places every failure the step causes at its
// line of this file.
type step struct {
	fln   string
	op    workload.Op
	fail  bool           // Apply must return an error
	stats map[string]any // Stats values after the step; "a.b" reads key b of map a
}

func fln() string {
	_, file, line, _ := runtime.Caller(1)
	return fmt.Sprintf("%s:%d: ", filepath.Base(file), line)
}

func op(t workload.OpType, i int64, fields ...string) workload.Op {
	o := workload.Op{Type: t, KeyIndex: i}
	for n, v := range fields {
		o.Fields = append(o.Fields, workload.Field{Name: fmt.Sprintf("field%d", n), Value: []byte(v)})
	}
	return o
}

func scan(i int64, n int) workload.Op {
	o := op(workload.OpScan, i)
	o.ScanLength = n
	return o
}

var (
	read   = func(i int64) workload.Op { return op(workload.OpRead, i) }
	update = func(i int64) workload.Op { return op(workload.OpUpdate, i, "updated") }
	insert = func(i int64) workload.Op { return op(workload.OpInsert, i, "new", "record") }
	rmw    = func(i int64) workload.Op { return op(workload.OpReadModifyWrite, i, "rmw") }
	bogus  = workload.Op{Type: "bogus", KeyIndex: 1}
)

// mongoScript is the mapping mongoagent's package doc promises, on a
// collection loaded with keys 0..7.
func mongoScript(engine string) []step {
	return []step{
		{fln: fln(), op: read(3), stats: map[string]any{"engine": engine, "engineStats.documents": 8}},
		{fln: fln(), op: read(100)}, // a missing key is a counted success
		{fln: fln(), op: update(3)},
		{fln: fln(), op: update(100), stats: map[string]any{"engineStats.documents": 8}}, // no upsert
		{fln: fln(), op: insert(8), stats: map[string]any{"engineStats.documents": 9}},
		{fln: fln(), op: insert(8), stats: map[string]any{"engineStats.documents": 9}}, // replaces
		{fln: fln(), op: scan(0, 20)},
		{fln: fln(), op: rmw(3)},
		{fln: fln(), op: rmw(100), stats: map[string]any{"engineStats.documents": 9}},
		{fln: fln(), op: bogus, fail: true},
	}
}

// tsScript is the mapping tsagent's package doc promises, on a store
// preloaded with series 0..7 of two points each and warmed by one window
// query per series.
var tsScript = []step{
	{fln: fln(), op: read(3), stats: map[string]any{"cardinality": 8, "engineStats.windows": 9}},
	// A missing series is a counted success that queries nothing.
	{fln: fln(), op: read(100), stats: map[string]any{"cardinality": 8, "engineStats.windows": 9}},
	{fln: fln(), op: update(3), stats: map[string]any{"cardinality": 8, "engineStats.appends": 17}},
	{fln: fln(), op: insert(8), stats: map[string]any{"cardinality": 9, "engineStats.appends": 18}}, // creates a series
	{fln: fln(), op: scan(0, 3), stats: map[string]any{"engineStats.windows": 12}},
	{fln: fln(), op: rmw(3), stats: map[string]any{"cardinality": 9, "engineStats.appends": 19}},
	{fln: fln(), op: rmw(300), stats: map[string]any{"cardinality": 10, "engineStats.appends": 20}},
	{fln: fln(), op: bogus, fail: true},
}

// TestSUTConformance runs a scripted operation sequence against every
// family in the table, mongodb-sim under both engines, through all five
// calls of the agent.SUT contract: the runner's Prepare opens and loads
// the SUT, WarmUp warms it, each step goes through Apply and is checked
// against Stats, and Clean closes it.
func TestSUTConformance(t *testing.T) {
	targets := []struct {
		system string
		params params.Assignment
		script []step
	}{
		// No engine parameter: wiredTiger is the declared default.
		{mongoagent.SystemName, params.Assignment{"records": params.Int(8)}, mongoScript(mongosim.EngineWiredTiger)},
		{mongoagent.SystemName, params.Assignment{"records": params.Int(8), "engine": params.String_(mongosim.EngineMMAPv1)}, mongoScript(mongosim.EngineMMAPv1)},
		{tsagent.SystemName, params.Assignment{"series": params.Int(8), "points": params.Int(2)}, tsScript},
	}
	covered := map[string]bool{}
	for _, tg := range targets {
		covered[tg.system] = true
		fam, _ := sims.Lookup(tg.system)
		r := fam.Factory(mongosim.NoIO, 1)().(*agent.SimRunner)
		rc := agent.NewTestRunContext(tg.params)
		if err := r.Prepare(rc); err != nil {
			t.Fatalf("%s %v: prepare: %v", tg.system, tg.params, err)
		}
		if err := r.WarmUp(rc); err != nil {
			t.Fatalf("%s %v: warm-up: %v", tg.system, tg.params, err)
		}
		sut := r.SUT()
		for _, s := range tg.script {
			err := sut.Apply(s.op)
			if s.fail && err == nil {
				t.Errorf("%s%s %v: %s %s succeeded, want an error", s.fln, tg.system, tg.params, s.op.Type, s.op.Key())
			} else if !s.fail && err != nil {
				t.Errorf("%s%s %v: %s %s: %v", s.fln, tg.system, tg.params, s.op.Type, s.op.Key(), err)
			}
			if len(s.stats) == 0 {
				continue
			}
			doc, _ := sut.Stats()
			for key, want := range s.stats {
				outer, inner, nested := strings.Cut(key, ".")
				got := doc[outer]
				if nested {
					got = got.(map[string]any)[inner]
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s%s %v: after %s %s, %s = %v, want %v", s.fln, tg.system, tg.params, s.op.Type, s.op.Key(), key, got, want)
				}
			}
		}
		if err := r.Clean(rc); err != nil {
			t.Errorf("%s %v: clean: %v", tg.system, tg.params, err)
		}
	}
	for _, fam := range sims.Families {
		if !covered[fam.Name] {
			t.Errorf("family %s has no conformance target", fam.Name)
		}
	}
}
