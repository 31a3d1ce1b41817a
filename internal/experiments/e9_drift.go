package experiments

import (
	"encoding/json"
	"fmt"

	"chronos/internal/agent/sims"
	"chronos/internal/core"
	"chronos/internal/mongoagent"
	"chronos/internal/params"
	"chronos/internal/tsagent"
	"chronos/internal/workload"
)

// DriftFamily is one SUT family's outcome under the drift schedule.
type DriftFamily struct {
	System string
	// Phases are the per-phase result rows the control plane serves.
	Phases []core.PhaseResult
	// Throughput is the whole-run rate.
	Throughput float64
	// Growth counts the dataset items the surge phase's inserts created
	// (documents for mongodb-sim, series for timeseries-sim).
	Growth int64
}

// E9Result carries both families' drift outcomes.
type E9Result struct {
	Schedule string
	Families map[string]*DriftFamily
}

// driftSchedule builds the three-phase drift DSL: a steady read-mostly
// phase, a mix shift with an arrival-rate ramp, and an insert surge that
// grows the dataset under the latest distribution (paper E-figure style).
func driftSchedule(operations int64) string {
	steady := operations * 45 / 100
	shift := operations * 35 / 100
	surge := operations - steady - shift
	return fmt.Sprintf(
		"phase=steady,ops=%d,mix=read:95+update:5,dist=zipfian;"+
			"phase=shift,ops=%d,mix=read:50+update:50,dist=uniform,rate=ramp:20000:200000;"+
			"phase=surge,ops=%d,mix=insert:40+read:60,dist=latest,grow=1",
		steady, shift, surge)
}

// E9DynamicDrift runs the dynamic-workload drift experiment end-to-end
// against both SUT families: the same seeded three-phase schedule (mix
// shift + arrival ramp + dataset growth) executes through the complete
// Chronos workflow against mongodb-sim and timeseries-sim, and the
// per-phase measurements come back as first-class results.
func E9DynamicDrift(cfg Config) (*Report, *E9Result, error) {
	rep := newReport("E9", "dynamic workload drift across SUT families")
	spec := driftSchedule(cfg.Operations)
	out := &E9Result{Schedule: spec, Families: map[string]*DriftFamily{}}
	rep.Printf("schedule: %s", spec)

	tb, err := newTestbed()
	if err != nil {
		return nil, nil, err
	}
	defer tb.close()

	run := func(system string, settings map[string][]params.Value, growth func(doc map[string]any) int64) error {
		sys, dep, err := tb.register(system)
		if err != nil {
			return err
		}
		family, _ := sims.Lookup(system)
		settings["schedule"] = []params.Value{params.String_(spec)}
		exp, err := tb.svc.CreateExperiment(tb.projectID, sys.ID, "drift-"+system, "", settings, 0)
		if err != nil {
			return err
		}
		_, jobs, err := tb.svc.CreateEvaluation(exp.ID)
		if err != nil {
			return err
		}
		if err := tb.drain(dep, family.Factory(cfg.WriteLatency, 7)); err != nil {
			return err
		}
		if len(jobs) != 1 {
			return fmt.Errorf("experiments: drift on %s expanded to %d jobs", system, len(jobs))
		}
		res, err := tb.svc.GetJobResult(jobs[0].ID)
		if err != nil {
			return err
		}
		var doc map[string]any
		if err := json.Unmarshal(res.JSON, &doc); err != nil {
			return err
		}
		phases, err := tb.svc.JobPhaseResults(jobs[0].ID)
		if err != nil {
			return err
		}
		fam := &DriftFamily{
			System:     system,
			Phases:     phases,
			Throughput: doc["throughput"].(float64),
			Growth:     growth(doc),
		}
		out.Families[system] = fam
		rep.Printf("%s: %.0f ops/s overall, +%d dataset items", system, fam.Throughput, fam.Growth)
		for _, p := range phases {
			rep.Printf("  phase %d %-7s %-26s %-10s ops=%-6d %.0f ops/s p50=%.2fus p95=%.2fus",
				p.Index, p.Phase, p.Mix, p.Distribution, p.Operations, p.Throughput, p.LatencyP50Us, p.LatencyP95Us)
		}
		return nil
	}

	err = run(mongoagent.SystemName,
		map[string][]params.Value{
			"records":    {params.Int(cfg.Records)},
			"operations": {params.Int(cfg.Operations)},
			"threads":    {params.Int(4)},
		},
		func(doc map[string]any) int64 {
			es := doc["engineStats"].(map[string]any)
			return int64(es["documents"].(float64)) - cfg.Records
		})
	if err != nil {
		return nil, nil, err
	}

	err = run(tsagent.SystemName,
		map[string][]params.Value{
			"series":     {params.Int(cfg.Records / 4)},
			"points":     {params.Int(8)},
			"operations": {params.Int(cfg.Operations)},
			"threads":    {params.Int(4)},
		},
		func(doc map[string]any) int64 {
			return int64(doc["cardinality"].(float64)) - cfg.Records/4
		})
	if err != nil {
		return nil, nil, err
	}

	if total, ok := workloadTotal(spec); ok {
		rep.Printf("scheduled volume: %d ops over %d phases", total, 3)
	}
	return rep, out, nil
}

// workloadTotal parses the DSL back and sums the op-bounded volume.
func workloadTotal(spec string) (int64, bool) {
	phases, err := workload.ParseSchedulePhases(spec)
	if err != nil {
		return 0, false
	}
	var total int64
	for _, p := range phases {
		if p.OperationCount <= 0 {
			return 0, false
		}
		total += p.OperationCount
	}
	return total, true
}
