package experiments

import (
	"encoding/json"
	"fmt"

	"chronos/internal/analysis"
	"chronos/internal/core"
	"chronos/internal/mongoagent"
	"chronos/internal/params"
)

// EngineSeries is one engine's throughput curve over the thread sweep.
type EngineSeries struct {
	Engine     string
	Threads    []int64
	Throughput []float64
	LatencyP95 []int64 // microseconds
}

// E6Result carries the demo's comparative series for shape assertions.
type E6Result struct {
	// Mixes maps mix name ("write-heavy 50:50", "read-mostly 95:5") to
	// the engine series.
	Mixes map[string][]EngineSeries
}

// Series returns the named engine's series under a mix.
func (r *E6Result) Series(mix, engine string) (EngineSeries, bool) {
	for _, s := range r.Mixes[mix] {
		if s.Engine == engine {
			return s, true
		}
	}
	return EngineSeries{}, false
}

// E6EngineComparison reproduces the paper's demonstration (Fig. 3d and
// the demo video): the comparative evaluation of MongoDB's wiredTiger and
// mmapv1 storage engines across client thread counts, executed through
// the complete Chronos workflow (experiment -> evaluation -> jobs ->
// agent -> results -> diagrams).
func E6EngineComparison(cfg Config) (*Report, *E6Result, error) {
	rep := newReport("E6", "MongoDB storage engine comparison (paper demo, Fig. 3d)")
	out := &E6Result{Mixes: map[string][]EngineSeries{}}

	mixes := []struct {
		name  string
		ratio params.Value
	}{
		{"write-heavy 50:50", params.Ratio(50, 50)},
		{"read-mostly 95:5", params.Ratio(95, 5)},
	}

	tb, err := newTestbed()
	if err != nil {
		return nil, nil, err
	}
	sys, dep, err := tb.register(mongoagent.SystemName)
	if err != nil {
		return nil, nil, err
	}

	for _, mix := range mixes {
		exp, err := tb.svc.CreateExperiment(tb.projectID, sys.ID, "engines-"+mix.name, "",
			map[string][]params.Value{
				"engine":     {params.String_("wiredtiger"), params.String_("mmapv1")},
				"threads":    intsToValues(cfg.Threads),
				"records":    {params.Int(cfg.Records)},
				"operations": {params.Int(cfg.Operations)},
				"mix":        {mix.ratio},
			}, 0)
		if err != nil {
			return nil, nil, err
		}
		ev, jobs, err := tb.svc.CreateEvaluation(exp.ID)
		if err != nil {
			return nil, nil, err
		}
		if err := drain(tb.svc, dep, mongoagent.NewFactory(engineOptions(cfg, 7))); err != nil {
			return nil, nil, err
		}

		// Collect the series.
		series := map[string]*EngineSeries{}
		var rows []analysis.ResultRow
		for _, j := range jobs {
			res, err := tb.svc.GetJobResult(j.ID)
			if err != nil {
				return nil, nil, fmt.Errorf("job %s has no result: %w", j.ID, err)
			}
			var doc map[string]any
			if err := json.Unmarshal(res.JSON, &doc); err != nil {
				return nil, nil, err
			}
			engine := j.Params.String("engine", "?")
			threads := j.Params.Int("threads", 0)
			s := series[engine]
			if s == nil {
				s = &EngineSeries{Engine: engine}
				series[engine] = s
			}
			s.Threads = append(s.Threads, threads)
			s.Throughput = append(s.Throughput, doc["throughput"].(float64))
			s.LatencyP95 = append(s.LatencyP95, int64(doc["latency_p95_us"].(float64)))
			row, err := analysis.RowFromResult(j, res.JSON)
			if err != nil {
				return nil, nil, err
			}
			rows = append(rows, row)
		}
		for _, engine := range []string{"wiredtiger", "mmapv1"} {
			if s := series[engine]; s != nil {
				out.Mixes[mix.name] = append(out.Mixes[mix.name], *s)
			}
		}

		// Report: paper-style table.
		rep.Printf("")
		rep.Printf("mix %s  (records=%d ops=%d per job)", mix.name, cfg.Records, cfg.Operations)
		rep.Printf("%10s %15s %15s %8s", "threads", "wiredtiger", "mmapv1", "ratio")
		wt, _ := out.Series(mix.name, "wiredtiger")
		mm, _ := out.Series(mix.name, "mmapv1")
		for i := range wt.Threads {
			ratio := 0.0
			if i < len(mm.Throughput) && mm.Throughput[i] > 0 {
				ratio = wt.Throughput[i] / mm.Throughput[i]
			}
			rep.Printf("%10d %12.0f/s %12.0f/s %7.2fx",
				wt.Threads[i], wt.Throughput[i], mm.Throughput[i], ratio)
		}

		// Render the line diagram exactly as the web UI would (Fig. 3d).
		spec := core.DiagramSpec{Type: "line", Title: "Throughput vs Threads (" + mix.name + ")",
			Metric: "throughput", XParam: "threads", SeriesParam: "engine"}
		chart, err := analysis.BuildChart(spec, rows)
		if err != nil {
			return nil, nil, err
		}
		ascii, err := analysis.RenderASCII(chart, 100)
		if err != nil {
			return nil, nil, err
		}
		for _, line := range splitLines(ascii) {
			rep.Printf("%s", line)
		}
		_ = ev
	}
	rep.Data["result"] = out
	return rep, out, nil
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
