package core

import (
	"encoding/json"
	"testing"
)

func TestExportProjectArchiveRoundTrip(t *testing.T) {
	svc, _ := newTestService(t)
	pID, _, depID, expID := registerDemo(t, svc)

	// Run a full evaluation so the archive has results and logs.
	ev, jobs, err := svc.CreateEvaluation(expID)
	if err != nil {
		t.Fatal(err)
	}
	for range jobs {
		j, ok, err := svc.ClaimJob(depID)
		if err != nil || !ok {
			t.Fatalf("claim: %v %v", ok, err)
		}
		svc.AppendJobLog(j.ID, "line one\n")
		svc.AppendJobLog(j.ID, "line two\n")
		res, _ := json.Marshal(map[string]any{"throughput": 42.5, "job": j.ID})
		if err := svc.CompleteJob(j.ID, res, []byte("aux-archive")); err != nil {
			t.Fatal(err)
		}
	}

	data, err := svc.ExportProject(pID)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := ReadProjectArchive(data)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Project.ID != pID {
		t.Fatalf("project = %+v", arch.Project)
	}
	if len(arch.Systems) != 1 || len(arch.Experiments) != 1 {
		t.Fatalf("systems=%d experiments=%d", len(arch.Systems), len(arch.Experiments))
	}
	if len(arch.Evaluations) != 1 || arch.Evaluations[0].Evaluation.ID != ev.ID {
		t.Fatalf("evaluations = %+v", arch.Evaluations)
	}
	ja := arch.Evaluations[0].Jobs
	if len(ja) != len(jobs) {
		t.Fatalf("archived jobs = %d, want %d", len(ja), len(jobs))
	}
	for _, j := range ja {
		if j.Job == nil || j.Job.Status != StatusFinished {
			t.Fatalf("archived job = %+v", j.Job)
		}
		if j.Result == nil || len(j.Result.JSON) == 0 {
			t.Fatal("archived job without result JSON")
		}
		var res map[string]any
		if err := json.Unmarshal(j.Result.JSON, &res); err != nil {
			t.Fatalf("result JSON invalid: %v", err)
		}
		if res["throughput"] != 42.5 {
			t.Fatalf("result = %v", res)
		}
		if string(j.Result.Archive) != "aux-archive" {
			t.Fatalf("result archive = %q", j.Result.Archive)
		}
		if j.Log != "line one\nline two\n" {
			t.Fatalf("log = %q", j.Log)
		}
		if len(j.Timeline) == 0 {
			t.Fatal("timeline missing")
		}
	}
	// The archive preserves parameter settings (requirement iv): the
	// experiment's sweep must survive.
	exp := arch.Experiments[0]
	if len(exp.Settings["engine"]) != 2 {
		t.Fatalf("settings lost: %+v", exp.Settings)
	}
}

func TestExportMissingProject(t *testing.T) {
	svc, _ := newTestService(t)
	if _, err := svc.ExportProject("project-000000404"); err == nil {
		t.Fatal("ghost project exported")
	}
}

func TestReadProjectArchiveErrors(t *testing.T) {
	if _, err := ReadProjectArchive([]byte("not a zip")); err == nil {
		t.Fatal("garbage accepted")
	}
}
